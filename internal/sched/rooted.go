package sched

import "fmt"

// rooted returns s relabelled to run from root: rank r becomes
// (r+root) mod P in every transfer (Src and Dst) and in Root. When the block
// space is the rank space (NumBlocks() == P), block b becomes (b+root) mod P
// as well — Range First and List blocks — so rank r still starts with and
// is addressed by block r. A rotated Range stays contiguous modulo P, so a
// schedule that passes its family's Verify at its own root passes it at the
// new one. Builders root at rank 0; the rotation is how every rooted
// collective runs a compiled program at the caller's root. Root 0 returns s
// itself; a root outside [0, P) is an error.
func rooted(s *Schedule, root int) (*Schedule, error) {
	if root < 0 || root >= s.P {
		return nil, fmt.Errorf("sched: root %d outside communicator of size %d", root, s.P)
	}
	if root == 0 {
		return s, nil
	}
	p := int32(s.P)
	rot := int32(root)
	rank := func(r int32) int32 { return (r + rot) % p }
	block := func(b int32) int32 { return b }
	if s.NumBlocks() == s.P {
		block = rank
	}
	relabel := func(stages []Stage) []Stage {
		out := make([]Stage, len(stages))
		for i, st := range stages {
			trs := make([]Transfer, len(st.Transfers))
			for j, tr := range st.Transfers {
				tr.Src, tr.Dst, tr.First = rank(tr.Src), rank(tr.Dst), block(tr.First)
				if tr.Blocks != nil {
					blocks := make([]int32, len(tr.Blocks))
					for k, b := range tr.Blocks {
						blocks[k] = block(b)
					}
					tr.Blocks = blocks
				}
				trs[j] = tr
			}
			st.Transfers = trs
			out[i] = st
		}
		return out
	}
	r := *s
	r.Root = int(rank(int32(s.Root)))
	r.Pre = relabel(s.Pre)
	r.Stages = relabel(s.Stages)
	return &r, nil
}
