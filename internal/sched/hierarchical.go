package sched

import (
	"fmt"

	"repro/internal/core"
)

// IntraKind selects the intra-node phases of the hierarchical allgather
// (paper Section II): either direct linear transfers to/from the node
// leader, or binomial-tree gather and broadcast.
type IntraKind uint8

const (
	// Linear uses the direct pattern: all ranks send to (receive from) the
	// leader in one stage. There is no intra-node pattern for rank
	// reordering to optimise in this mode.
	Linear IntraKind = iota
	// NonLinear uses binomial-tree gather and broadcast, the patterns
	// targeted by BGMH and BBMH.
	NonLinear
)

// String implements fmt.Stringer.
func (k IntraKind) String() string {
	if k == Linear {
		return "linear"
	}
	return "non-linear"
}

// InterKind selects the leader-phase allgather algorithm.
type InterKind uint8

const (
	// InterRecursiveDoubling runs recursive doubling among node leaders.
	InterRecursiveDoubling InterKind = iota
	// InterRing runs the ring algorithm among node leaders.
	InterRing
)

// String implements fmt.Stringer.
func (k InterKind) String() string {
	if k == InterRecursiveDoubling {
		return "recursive-doubling"
	}
	return "ring"
}

// HierarchicalConfig describes a hierarchical allgather composition.
type HierarchicalConfig struct {
	Intra IntraKind
	Inter InterKind
}

// Hierarchical builds the three-phase hierarchical allgather schedule:
//
//	phase 1 — gather each node's blocks into its leader (group[0])
//	phase 2 — allgather of the aggregated blocks among the leaders
//	phase 3 — broadcast of the full result from each leader to its node
//
// groups lists, per node, the ranks residing there, leader first; every rank
// 0..p-1 must appear exactly once. The member order of a group is its rank
// order inside the gather tree and the order of groups is the leaders' rank
// order in the inter-leader phase, so a rank reordering of either phase is a
// permutation of these lists. bcast, when non-nil, gives the broadcast
// phase its own member order: per group, a permutation of the same members
// with the same leader. All groups must have equal size (the paper's
// dedicated, fully populated allocations) and, when the ring inter-node
// algorithm is selected, each group must be a contiguous rank range so that
// forwarded node-block sets stay contiguous — which is exactly the
// block-layout restriction the paper notes ("hierarchical allgather is not
// supported with cyclic mapping").
func Hierarchical(groups, bcast [][]int, cfg HierarchicalConfig) (*Schedule, error) {
	p, err := checkGroups(groups)
	if err != nil {
		return nil, err
	}
	k := len(groups[0])
	for gi, g := range groups {
		if len(g) != k {
			return nil, fmt.Errorf("sched: hierarchical groups must be uniform: group 0 has %d ranks, group %d has %d",
				k, gi, len(g))
		}
	}
	if bcast == nil {
		bcast = groups
	} else if err := checkReordered(groups, bcast, p); err != nil {
		return nil, err
	}
	s := &Schedule{Name: fmt.Sprintf("hierarchical-%s-%s", cfg.Intra, cfg.Inter), P: p}

	// Phase 1: intra-node gather into the leaders; stages of all groups
	// proceed concurrently and are merged stage-by-stage.
	gatherStages, err := intraPhase(groups, cfg.Intra, true)
	if err != nil {
		return nil, err
	}
	s.Stages = append(s.Stages, gatherStages...)

	// Phase 2: inter-leader allgather over aggregated node blocks.
	interStages, err := interPhase(groups, leadersOf(groups), cfg.Inter)
	if err != nil {
		return nil, err
	}
	s.Stages = append(s.Stages, interStages...)

	// Phase 3: intra-node broadcast of the complete result.
	bcastStages, err := intraPhase(bcast, cfg.Intra, false)
	if err != nil {
		return nil, err
	}
	s.Stages = append(s.Stages, bcastStages...)
	return s, nil
}

// HierarchicalAllreduce builds the hierarchical reduce + broadcast allreduce
// over node groups (leader first; populations may differ, since reductions
// combine rather than concatenate): a binomial reduce inside every node
// into its leader, a binomial reduce and broadcast among the leaders, and a
// binomial broadcast inside every node. Like BinomialReduceBroadcast, the
// block space is one block every rank starts with its own partial value of
// (InitAll), and every phase reuses the patterns BGMH and BBMH optimise.
func HierarchicalAllreduce(groups [][]int) (*Schedule, error) {
	p, err := checkGroups(groups)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Name: "hierarchical-allreduce", P: p, Blocks: 1, Init: InitAll}
	// Every phase is part of the flat binomial reduce + broadcast over its
	// groups — halves [from, to) of that schedule's stages, whose first
	// half reduces into local rank 0 and whose second broadcasts from it.
	for _, ph := range []struct {
		groups   [][]int
		from, to int
	}{
		{groups, 0, 1},                     // intra-node reduce
		{[][]int{leadersOf(groups)}, 0, 2}, // leader reduce + broadcast
		{groups, 1, 2},                     // intra-node broadcast
	} {
		stages, err := mergeGroups(ph.groups, func(n int) ([]Stage, error) {
			rb, err := BinomialReduceBroadcast(n)
			if err != nil {
				return nil, err
			}
			half := len(rb.Stages) / 2
			return rb.Stages[ph.from*half : ph.to*half], nil
		})
		if err != nil {
			return nil, err
		}
		s.Stages = append(s.Stages, stages...)
	}
	return s, nil
}

// checkGroups checks that groups partition the ranks 0..p-1 into non-empty
// groups and returns p.
func checkGroups(groups [][]int) (int, error) {
	if len(groups) == 0 {
		return 0, fmt.Errorf("sched: hierarchical needs at least one group")
	}
	p := 0
	for gi, g := range groups {
		if len(g) == 0 {
			return 0, fmt.Errorf("sched: hierarchical group %d is empty", gi)
		}
		p += len(g)
	}
	seen := make([]bool, p)
	for gi, g := range groups {
		for _, r := range g {
			if r < 0 || r >= p {
				return 0, fmt.Errorf("sched: hierarchical group %d contains rank %d outside 0..%d", gi, r, p-1)
			}
			if seen[r] {
				return 0, fmt.Errorf("sched: rank %d appears in more than one group", r)
			}
			seen[r] = true
		}
	}
	return p, nil
}

// checkReordered checks that order lists, per group, a permutation of the
// group's members that keeps its leader.
func checkReordered(groups, order [][]int, p int) error {
	if len(order) != len(groups) {
		return fmt.Errorf("sched: hierarchical broadcast order has %d groups, want %d", len(order), len(groups))
	}
	owner := make([]int, p)
	for gi, g := range groups {
		for _, r := range g {
			owner[r] = gi
		}
	}
	for gi, g := range order {
		if len(g) != len(groups[gi]) || g[0] != groups[gi][0] {
			return fmt.Errorf("sched: hierarchical broadcast order of group %d is not a leader-first permutation of its members", gi)
		}
		seen := make(map[int]bool, len(g))
		for _, r := range g {
			if r < 0 || r >= p || owner[r] != gi || seen[r] {
				return fmt.Errorf("sched: hierarchical broadcast order of group %d is not a leader-first permutation of its members", gi)
			}
			seen[r] = true
		}
	}
	return nil
}

// leadersOf returns every group's leader (its first member), in group order.
func leadersOf(groups [][]int) []int {
	leaders := make([]int, len(groups))
	for gi, g := range groups {
		leaders[gi] = g[0]
	}
	return leaders
}

// IntraGather builds the standalone phase-1 schedule: per-node gathers into
// the leaders, merged stage-by-stage across nodes. Rank space and block
// space are global. Used to price hierarchical phases separately when the
// phases run under different rank reorderings.
func IntraGather(groups [][]int, kind IntraKind) (*Schedule, error) {
	p := 0
	for _, g := range groups {
		p += len(g)
	}
	if p == 0 {
		return nil, fmt.Errorf("sched: empty groups")
	}
	stages, err := intraPhase(groups, kind, true)
	if err != nil {
		return nil, err
	}
	return &Schedule{Name: fmt.Sprintf("intra-gather-%s", kind), P: p, Stages: stages, Init: InitSizedOnly}, nil
}

// IntraBroadcast builds the standalone phase-3 schedule: per-node broadcasts
// of the complete p-block result from the leaders.
func IntraBroadcast(groups [][]int, kind IntraKind) (*Schedule, error) {
	p := 0
	for _, g := range groups {
		p += len(g)
	}
	if p == 0 {
		return nil, fmt.Errorf("sched: empty groups")
	}
	stages, err := intraPhase(groups, kind, false)
	if err != nil {
		return nil, err
	}
	return &Schedule{Name: fmt.Sprintf("intra-broadcast-%s", kind), P: p, Stages: stages, Init: InitSizedOnly}, nil
}

// intraPhase builds the merged per-node gather (gather=true) or broadcast
// stages. In the broadcast phase every transfer carries the full p blocks.
func intraPhase(groups [][]int, kind IntraKind, gather bool) ([]Stage, error) {
	p := 0
	for _, g := range groups {
		p += len(g)
	}
	return mergeGroups(groups, func(n int) ([]Stage, error) {
		var local *Schedule
		var err error
		switch {
		case kind == Linear && gather:
			local, err = LinearGather(n)
		case kind == Linear && !gather:
			local, err = LinearBroadcast(n, p)
		case gather:
			local, err = BinomialGather(n)
		default:
			local, err = BinomialBroadcast(n, p)
		}
		if err != nil {
			return nil, err
		}
		return local.Stages, nil
	})
}

// mergeGroups builds every group's local stages with build (over the
// group's size, local rank i standing for member g[i]), relabels them into
// the global rank space, and merges them stage by stage, so the groups
// proceed concurrently. Single-member groups contribute nothing.
func mergeGroups(groups [][]int, build func(n int) ([]Stage, error)) ([]Stage, error) {
	var merged []Stage
	for _, g := range groups {
		if len(g) == 1 {
			continue
		}
		local, err := build(len(g))
		if err != nil {
			return nil, err
		}
		for si, st := range local {
			// Every group runs the same builder, so stage si is a reduce
			// stage in all of them or in none.
			if si == len(merged) {
				merged = append(merged, Stage{Reduce: st.Reduce})
			}
			out := &merged[si]
			for _, tr := range st.Transfers {
				g0 := tr
				g0.Src, g0.Dst = int32(g[tr.Src]), int32(g[tr.Dst])
				if tr.Mode == Range {
					// Local block index -> global rank block.
					g0.First = int32(g[tr.First])
					if g0.N != 1 {
						return nil, fmt.Errorf("sched: internal: multi-block range in intra phase")
					}
				}
				out.Transfers = append(out.Transfers, g0)
			}
		}
	}
	return merged, nil
}

// interPhase builds the leader allgather over node-aggregated blocks.
func interPhase(groups [][]int, leaders []int, kind InterKind) ([]Stage, error) {
	g := len(leaders)
	if g == 1 {
		return nil, nil
	}
	k := len(groups[0])
	switch kind {
	case InterRecursiveDoubling:
		if g&(g-1) != 0 {
			return nil, fmt.Errorf("sched: inter-leader recursive doubling needs a power-of-two node count, got %d", g)
		}
		var stages []Stage
		for mask := 1; mask < g; mask <<= 1 {
			var st Stage
			for i := 0; i < g; i++ {
				st.Transfers = append(st.Transfers, Transfer{
					Src: int32(leaders[i]), Dst: int32(leaders[i^mask]),
					N: int32(mask * k), Mode: All,
				})
			}
			stages = append(stages, st)
		}
		return stages, nil
	case InterRing:
		// Ring forwarding of whole node-block sets: leader i forwards, at
		// repeat t, the blocks of node (i - t) mod g. The forwarded sets
		// stay well-defined only when each group is a contiguous rank run —
		// the block-layout restriction the paper notes for hierarchical
		// allgather.
		lo := make([]int, len(groups))
		for gi, grp := range groups {
			lo[gi] = grp[0]
			for _, r := range grp {
				if r < lo[gi] {
					lo[gi] = r
				}
			}
			for _, r := range grp {
				if r >= lo[gi]+len(grp) {
					return nil, fmt.Errorf("sched: inter-leader ring requires contiguous rank groups (block layouts); group %d is not contiguous", gi)
				}
			}
		}
		var st Stage
		for i := 0; i < g; i++ {
			// First repeat: leader i forwards its own node's contiguous
			// block range [lo, lo+k); later repeats forward what the
			// previous repeat delivered.
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(leaders[i]), Dst: int32(leaders[(i+1)%g]),
				First: int32(lo[i]), N: int32(k), Mode: Latest,
			})
		}
		return []Stage{{Transfers: st.Transfers, Repeat: g - 1}}, nil
	default:
		return nil, fmt.Errorf("sched: unknown inter kind %d", kind)
	}
}

// Groups derives the node groups (leader-first, in rank order) from a
// process layout: groups[i] lists the ranks whose cores share the i-th
// distinct node encountered in rank order. nodeOf maps a core to its node.
func Groups(layout []int, nodeOf func(core int) int) [][]int {
	index := map[int]int{}
	var groups [][]int
	for r, c := range layout {
		n := nodeOf(c)
		gi, ok := index[n]
		if !ok {
			gi = len(groups)
			index[n] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], r)
	}
	return groups
}

// HierarchicalPatterns reports which mapping-heuristic patterns the phases
// of a hierarchical configuration expose, in (intra-gather, inter, intra-
// broadcast) order; Linear phases expose no pattern (nil entries).
func HierarchicalPatterns(cfg HierarchicalConfig) (intraGather, inter, intraBcast *core.Pattern) {
	pat := func(p core.Pattern) *core.Pattern { return &p }
	if cfg.Intra == NonLinear {
		intraGather = pat(core.BinomialGather)
		intraBcast = pat(core.BinomialBroadcast)
	}
	if cfg.Inter == InterRecursiveDoubling {
		inter = pat(core.RecursiveDoubling)
	} else {
		inter = pat(core.Ring)
	}
	return
}
