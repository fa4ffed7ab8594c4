package simnet

import (
	"slices"

	"repro/internal/sched"
)

// PricePipelined prices a schedule without the global stage barrier that
// Price assumes: each rank proceeds to its next transfer as soon as its own
// dependencies complete, so fast chains overtake slow ones (ring pipelining,
// staggered tree levels). Per-transfer durations still use the stage's
// static contention loads — the same channels are busy in steady state — so
// the difference between Price and PricePipelined isolates the barrier
// assumption itself. It is a model ablation: the paper's conclusions should
// not (and, per the benchmark, do not) depend on which variant prices the
// schedules.
//
// The result is never larger than Price's for the same inputs.
func (m *Machine) PricePipelined(s *sched.Schedule, layout []int, blockBytes int) (float64, error) {
	prog, err := sched.CompileCached(s)
	if err != nil {
		return 0, err
	}
	if err := checkBlockBytes(blockBytes); err != nil {
		return 0, err
	}
	ready := make([]float64, prog.P)
	var snapshot, durations []float64
	err = m.stagePass(prog, layout, func(sc *priceScratch, _ int, st *sched.ProgStage) error {
		// Per-transfer durations are repeat-invariant: compute once.
		durations = durations[:0]
		for i := range st.Transfers {
			tr := &st.Transfers[i]
			alpha, inv, err := m.transferLineSparse(sc, tr, layout)
			if err != nil {
				return err
			}
			durations = append(durations, lineTime(alpha, float64(tr.N), inv, float64(blockBytes)))
		}
		for rep := 0; rep < st.Repeat; rep++ {
			snapshot = append(snapshot[:0], ready...)
			for ti, tr := range st.Transfers {
				comp := max(snapshot[tr.Src], snapshot[tr.Dst]) + durations[ti]
				ready[tr.Src] = max(ready[tr.Src], comp)
				ready[tr.Dst] = max(ready[tr.Dst], comp)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(ready) + postCopySeconds(prog.PostCopyBlocks, float64(blockBytes), m.Params.MemCopy), nil
}
