package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/synth"
	"repro/internal/topology"
)

// synthFatTree64 is the acceptance-point machine: 8 nodes x 2 sockets x 4
// cores under a two-level fat tree, 64 ranks total.
func synthFatTree64(t testing.TB) *simnet.Machine {
	t.Helper()
	c, err := topology.NewCluster(8, 2, 4, topology.TwoLevelFatTree(2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := simnet.NewMachine(c, simnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSynthTableEndToEnd is the PR's acceptance criterion: on the 64-rank
// fat tree at 2 KiB blocks the search finds a schedule strictly cheaper than
// the hand-coded selection (ring), the table-configured front door executes
// it — observable on the synth_table_* and schedule_* metrics — and its
// output is byte-identical to the legacy loops.
func TestSynthTableEndToEnd(t *testing.T) {
	m := synthFatTree64(t)
	const p, blk = 64, 2048

	tab, results, err := synth.BuildTable(m, []synth.Family{synth.Allgather}, []int{p}, []int{blk}, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := tab.Lookup(synth.Allgather, p, blk)
	if !ok {
		t.Fatalf("search found no strict improvement at the acceptance point; results: %+v", results[0])
	}
	if entry.PriceSeconds >= entry.BaselineSeconds {
		t.Fatalf("stored entry is not strictly better: %g vs baseline %g",
			entry.PriceSeconds, entry.BaselineSeconds)
	}
	if entry.BaselineName != "ring" {
		t.Fatalf("expected the hand-coded selection to pick ring at 2 KiB, it picked %q", entry.BaselineName)
	}

	hits0, _ := synth.TableCounters()
	exec0 := scheduleExecutions.With("algorithm", entry.Name).Value()
	ring0 := scheduleExecutions.With("algorithm", "ring").Value()

	sel := synth.NewSelector(tab)
	err = mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Synth: sel})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		got := make([]byte, p*blk)
		if err := Allgather(c, send, got, AlgAuto); err != nil {
			return fmt.Errorf("table-driven allgather: %w", err)
		}
		want := make([]byte, p*blk)
		if err := refRingAllgather(c, send, want, nil); err != nil {
			return fmt.Errorf("reference allgather: %w", err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: synthesized schedule output differs from legacy", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	hits1, _ := synth.TableCounters()
	if hits1 != hits0+p {
		t.Errorf("synth_table_hits_total advanced by %d, want %d (one per rank)", hits1-hits0, p)
	}
	exec1 := scheduleExecutions.With("algorithm", entry.Name).Value()
	if exec1 != exec0+p {
		t.Errorf("schedule_executions_total{algorithm=%q} advanced by %d, want %d",
			entry.Name, exec1-exec0, p)
	}
	if ring1 := scheduleExecutions.With("algorithm", "ring").Value(); ring1 != ring0 {
		t.Errorf("hand-coded ring still executed %d times under the synth table", ring1-ring0)
	}
}

// TestSynthTableMissFallsBack: a world configured with a table that has no
// entry for the call's shape falls back to the hand-coded selection and
// counts a miss.
func TestSynthTableMissFallsBack(t *testing.T) {
	m := synthFatTree64(t)
	sel := synth.NewSelector(synth.NewTable(m)) // empty table: always misses
	const p, blk = 4, 2048
	_, miss0 := synth.TableCounters()
	ring0 := scheduleExecutions.With("algorithm", "ring").Value()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Synth: sel})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := make([]byte, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgAuto)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, miss1 := synth.TableCounters(); miss1 != miss0+p {
		t.Errorf("synth_table_misses_total advanced by %d, want %d", miss1-miss0, p)
	}
	if ring1 := scheduleExecutions.With("algorithm", "ring").Value(); ring1 != ring0+p {
		t.Errorf("fallback ring executed %d times, want %d", ring1-ring0, p)
	}
}

// TestBaselineMatchesFrontDoor pins synth.BaselineRecipe — the searcher's
// mirror of the hand-coded selection rules, which it cannot import without a
// cycle — against the real front-door selection, so the two cannot drift.
func TestBaselineMatchesFrontDoor(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 32, 64, 100, 128} {
		for _, n := range []int{1, 8, 512, 1024, 1025, 2048, 32768, 32768 + 8, 65536} {
			// Allgather: the recipe's base builder must name the same
			// algorithm Select resolves.
			got := synth.BaselineRecipe(synth.Allgather, p, n).Alg
			want := Select(AlgAuto, p, n).String()
			if got != want {
				t.Errorf("allgather p=%d n=%d: BaselineRecipe=%q, front door=%q", p, n, got, want)
			}
			// Allreduce: map the front door's label onto the recipe space.
			_, label, err := DefaultTuning().allreduceProgram(p, n)
			if err != nil {
				t.Fatalf("allreduceProgram(%d, %d): %v", p, n, err)
			}
			want = "allreduce"
			if label == "rabenseifner" {
				want = "reduce-scatter-allgather"
			}
			if got := synth.BaselineRecipe(synth.Allreduce, p, n).Alg; got != want {
				t.Errorf("allreduce p=%d n=%d: BaselineRecipe=%q, front door=%q", p, n, got, want)
			}
			// Alltoall: the baseline switches on the per-pair message size
			// (payload/p), Bruck below the threshold and pairwise exchange
			// above — the registry rule the Alltoall front door compiles
			// through baselineProgram.
			want = "bruck-alltoall"
			if n/p > 1024 {
				want = "pairwise-alltoall"
			}
			if got := synth.BaselineRecipe(synth.Alltoall, p, n).Alg; got != want {
				t.Errorf("alltoall p=%d n=%d: BaselineRecipe=%q, front door=%q", p, n, got, want)
			}
		}
	}
}

// TestPerWorldTuning: two worlds in one process run different thresholds —
// one world's Configure does not leak into the other.
func TestPerWorldTuning(t *testing.T) {
	const p, blk = 4, 2048
	rd0 := scheduleExecutions.With("algorithm", "recursive-doubling").Value()
	// World A: ring threshold raised above blk, so AlgAuto picks recursive
	// doubling where the default would pick ring.
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Tuning: Tuning{RingThreshold: 4096}})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := make([]byte, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgAuto)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rd1 := scheduleExecutions.With("algorithm", "recursive-doubling").Value(); rd1 != rd0+p {
		t.Errorf("tuned world ran recursive doubling %d times, want %d", rd1-rd0, p)
	}

	// World B (default): same shape picks ring.
	ring0 := scheduleExecutions.With("algorithm", "ring").Value()
	err = mpi.Run(p, func(c *mpi.Comm) error {
		send := make([]byte, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgAuto)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ring1 := scheduleExecutions.With("algorithm", "ring").Value(); ring1 != ring0+p {
		t.Errorf("default world ran ring %d times, want %d", ring1-ring0, p)
	}
}

// TestPerWorldRabenseifnerThreshold: lowering the threshold per-world routes
// a small buffer through the reduce-scatter + allgather schedule.
func TestPerWorldRabenseifnerThreshold(t *testing.T) {
	const p = 4
	n := 1024 // below the default 32768 threshold, divisible by p
	rs0 := scheduleExecutions.With("algorithm", "reduce-scatter-allgather").Value()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Tuning: Tuning{RabenseifnerThreshold: 512}})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(c.Rank())
		}
		return Allreduce(c, buf, func(dst, src []byte) {
			for i := range dst {
				dst[i] += src[i]
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs1 := scheduleExecutions.With("algorithm", "reduce-scatter-allgather").Value(); rs1 != rs0+p {
		t.Errorf("tuned world ran rabenseifner %d times, want %d", rs1-rs0, p)
	}
}
