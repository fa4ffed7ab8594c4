// Size-sweep pricing profiles: the contention aggregation of PriceProgram
// is independent of the message size, so a (program, layout) pair priced at
// many sizes — adaptive policies, figure sweeps, batch mapping — can pay for
// the per-transfer pass once and evaluate every size from a tiny summary.
//
// A transfer's time is alpha + (N*blockBytes)*inv where alpha, N and inv
// (the worst seconds-per-byte across the shared resources on its path) do
// not depend on blockBytes. A stage's time is the max of its transfers'
// lines, so per stage the profile keeps only the Pareto frontier of
// (alpha, N, inv) triples: a line componentwise below another can never win
// the max at any size. Because float rounding is monotone, dropping
// dominated lines is exact — Profile().Price(b) equals PriceProgram(b) bit
// for bit, and the equivalence test enforces that.
package simnet

import "repro/internal/sched"

// priceLine is one undominated transfer cost line: time(b) = alpha + (n*b)*inv.
type priceLine struct {
	alpha float64 // channel latency term
	n     float64 // blocks transferred, as float64(tr.N)
	inv   float64 // worst effective seconds-per-byte on the path
}

// profileStage is one program stage's envelope.
type profileStage struct {
	repeat float64
	lines  []priceLine
}

// PriceProfile is the size-independent pricing summary of one compiled
// program under one layout. Build with Machine.Profile, evaluate any message
// size with Price. The profile is immutable and safe for concurrent use.
type PriceProfile struct {
	stages   []profileStage
	postCopy int // prog.PostCopyBlocks
	memCopy  float64
}

// Profile aggregates prog's per-stage contention under layout once and
// returns the reusable summary. The cost is about one PriceProgram call;
// every subsequent Price is a handful of multiply-adds per stage.
func (m *Machine) Profile(prog *sched.Program, layout []int) (*PriceProfile, error) {
	pp := &PriceProfile{
		stages:   make([]profileStage, 0, len(prog.Stages)),
		postCopy: prog.PostCopyBlocks,
		memCopy:  m.Params.MemCopy,
	}
	err := m.stagePass(prog, layout, func(sc *priceScratch, _ int, st *sched.ProgStage) error {
		ps := profileStage{repeat: float64(st.Repeat)}
		for j := range st.Transfers {
			tr := &st.Transfers[j]
			alpha, inv, err := m.transferLineSparse(sc, tr, layout)
			if err != nil {
				return err
			}
			ps.lines = addLine(ps.lines, priceLine{alpha: alpha, n: float64(tr.N), inv: inv})
		}
		pp.stages = append(pp.stages, ps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pp, nil
}

// addLine inserts l into the envelope, dropping componentwise-dominated
// lines. Rounding monotonicity makes componentwise domination exact: if
// every coefficient of l is <= another line's, l can never exceed it at any
// block size, even after per-operation rounding.
func addLine(lines []priceLine, l priceLine) []priceLine {
	for i := range lines {
		if lines[i].alpha >= l.alpha && lines[i].n >= l.n && lines[i].inv >= l.inv {
			return lines // dominated by an existing line
		}
	}
	keep := lines[:0]
	for i := range lines {
		if l.alpha >= lines[i].alpha && l.n >= lines[i].n && l.inv >= lines[i].inv {
			continue // existing line dominated by l
		}
		keep = append(keep, lines[i])
	}
	return append(keep, l)
}

// Price evaluates the profile at one block size, reproducing
// PriceProgram(prog, layout, blockBytes) exactly: same per-transfer
// operations in the same order, with the max taken over the surviving
// envelope lines.
func (pp *PriceProfile) Price(blockBytes int) (float64, error) {
	if err := checkBlockBytes(blockBytes); err != nil {
		return 0, err
	}
	b := float64(blockBytes)
	total := 0.0
	for i := range pp.stages {
		st := &pp.stages[i]
		worst := 0.0
		for _, l := range st.lines {
			if t := lineTime(l.alpha, l.n, l.inv, b); t > worst {
				worst = t
			}
		}
		total += worst * st.repeat
	}
	return total + postCopySeconds(pp.postCopy, b, pp.memCopy), nil
}
