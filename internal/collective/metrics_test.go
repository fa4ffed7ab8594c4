package collective

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// seriesValues reads every series of a labelled counter family on the
// default registry, keyed by its algorithm label.
func seriesValues(family string) map[string]int64 {
	out := map[string]int64{}
	for _, f := range metrics.TakeSnapshot(metrics.Default).Families {
		if f.Name != family {
			continue
		}
		for _, m := range f.Metrics {
			if m.Value != nil {
				out[m.Labels["algorithm"]] = *m.Value
			}
		}
	}
	return out
}

// TestPreRegisteredLabelsMatchEmitted drives every rule-selected front-door
// path (no synth table) and requires the labels it emits on
// collective_invocations_total and schedule_executions_total to be exactly
// the pre-registered knownAlgorithms and knownSchedules: everything emitted
// is pre-registered, and nothing pre-registered is unreachable.
func TestPreRegisteredLabelsMatchEmitted(t *testing.T) {
	const p, blk = 4, 8
	cluster, layout := hierCluster(t, 2, 1, 2, p, topology.BlockBunch)
	nodeOf := func(worldRank int) int { return worldRank / 2 }
	hierConfigs := []sched.HierarchicalConfig{
		{Intra: sched.Linear, Inter: sched.InterRing},
		{Intra: sched.Linear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.NonLinear, Inter: sched.InterRing},
		{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling},
	}

	invocations0 := seriesValues("collective_invocations_total")
	executions0 := seriesValues("schedule_executions_total")
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send, recv := input(c.Rank(), blk), make([]byte, p*blk)
		for _, alg := range []Algorithm{AlgRing, AlgRecursiveDoubling, AlgBruck, AlgNeighborExchange} {
			if err := Allgather(c, send, recv, alg); err != nil {
				return fmt.Errorf("allgather %v: %w", alg, err)
			}
		}
		for _, n := range []int{blk, RabenseifnerThresholdBytes} {
			if err := Allreduce(c, make([]byte, n), sumOp); err != nil {
				return fmt.Errorf("allreduce %d: %w", n, err)
			}
		}
		if err := Broadcast(c, 1, make([]byte, blk)); err != nil {
			return err
		}
		var gathered []byte
		if c.Rank() == 2 {
			gathered = make([]byte, p*blk)
		}
		if err := Gather(c, 2, send, gathered); err != nil {
			return err
		}
		if err := Scatter(c, 0, make([]byte, p*blk), make([]byte, blk)); err != nil {
			return err
		}
		for _, perPair := range []int{blk, 4096} {
			if err := Alltoall(c, make([]byte, p*perPair), make([]byte, p*perPair)); err != nil {
				return fmt.Errorf("alltoall %d: %w", perPair, err)
			}
		}
		re, err := NewReordered(c, core.Identity(p), sched.InitComm)
		if err != nil {
			return err
		}
		if err := re.Allgather(send, recv, AlgRing); err != nil {
			return err
		}
		for _, cfg := range hierConfigs {
			if err := HierarchicalAllgather(c, send, recv, nodeOf, cfg); err != nil {
				return fmt.Errorf("hierarchical %v: %w", cfg, err)
			}
		}
		if err := HierarchicalReorderedAllgather(c, send, recv, cluster, layout, hierConfigs[3]); err != nil {
			return err
		}
		return HierarchicalAllreduce(c, make([]byte, blk), sumOp, nodeOf)
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		family string
		before map[string]int64
		known  []string
	}{
		{"collective_invocations_total", invocations0, knownAlgorithms},
		{"schedule_executions_total", executions0, knownSchedules},
	} {
		known := map[string]bool{}
		for _, l := range tc.known {
			known[l] = true
		}
		emitted := map[string]bool{}
		for label, v := range seriesValues(tc.family) {
			if v > tc.before[label] {
				emitted[label] = true
				if !known[label] {
					t.Errorf("%s{algorithm=%q} is emitted but not pre-registered", tc.family, label)
				}
			}
		}
		for l := range known {
			if !emitted[l] {
				t.Errorf("%s{algorithm=%q} is pre-registered but no front door emitted it", tc.family, l)
			}
		}
	}
}
