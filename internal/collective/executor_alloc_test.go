package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// TestExecuteGatherRejectsWrongRoot pins the root-validation regression: a
// caller whose root disagrees with the compiled program's root must get an
// explicit error, not a silently unfilled recv buffer on its chosen root.
func TestExecuteGatherRejectsWrongRoot(t *testing.T) {
	const p, blk = 4, 8
	s, err := sched.BinomialGather(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(p, func(c *mpi.Comm) error {
		recv := make([]byte, p*blk)
		// The program gathers to rank 0; claiming root 1 must fail on
		// every rank, before any message moves.
		if err := ExecuteGather(c, prog, 1, input(c.Rank(), blk), recv); err == nil {
			return fmt.Errorf("rank %d: mismatched gather root accepted", c.Rank())
		}
		// The matching root still works.
		if c.Rank() != 0 {
			recv = nil
		}
		return ExecuteGather(c, prog, 0, input(c.Rank(), blk), recv)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateNeighborExchangeMetricsLabel pins the p=1 neighbour-exchange
// fix: the degenerate schedule is labelled by the resolved algorithm, so
// schedule_executions_total{algorithm="neighbor-exchange"} — not "ring" —
// increments, agreeing with the allgather/neighbor-exchange trace span.
func TestDegenerateNeighborExchangeMetricsLabel(t *testing.T) {
	neBefore := scheduleExecutions.With("algorithm", "neighbor-exchange").Value()
	ringBefore := scheduleExecutions.With("algorithm", "ring").Value()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		send := input(0, 16)
		recv := make([]byte, 16)
		if err := Allgather(c, send, recv, AlgNeighborExchange); err != nil {
			return err
		}
		if !bytes.Equal(recv, send) {
			return fmt.Errorf("p=1 neighbor exchange output differs from input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := scheduleExecutions.With("algorithm", "neighbor-exchange").Value(); got != neBefore+1 {
		t.Errorf("neighbor-exchange executions = %d, want %d", got, neBefore+1)
	}
	if got := scheduleExecutions.With("algorithm", "ring").Value(); got != ringBefore {
		t.Errorf("ring executions moved to %d (from %d) for a neighbor-exchange call", got, ringBefore)
	}
}

// steadyWorld is a persistent world whose ranks execute one collective per
// trigger, so a caller can measure the steady-state cost of executeProgram
// without re-paying world construction.
type steadyWorld struct {
	triggers []chan struct{}
	done     chan error
	stop     chan struct{}
	finished chan error
}

// startSteadyWorld launches p ranks that run body once per trigger.
func startSteadyWorld(p int, body func(c *mpi.Comm) error) *steadyWorld {
	w := &steadyWorld{
		triggers: make([]chan struct{}, p),
		done:     make(chan error, p),
		stop:     make(chan struct{}),
		finished: make(chan error, 1),
	}
	for r := range w.triggers {
		w.triggers[r] = make(chan struct{}, 1)
	}
	go func() {
		w.finished <- mpi.Run(p, func(c *mpi.Comm) error {
			for {
				select {
				case <-w.stop:
					return nil
				case <-w.triggers[c.Rank()]:
					w.done <- body(c)
				}
			}
		}, mpi.WithTimeout(5*time.Minute))
	}()
	return w
}

// round triggers one collective on every rank and waits for completion.
func (w *steadyWorld) round() error {
	for _, tr := range w.triggers {
		tr <- struct{}{}
	}
	var first error
	for range w.triggers {
		if err := <-w.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close shuts the world down.
func (w *steadyWorld) close() error {
	close(w.stop)
	return <-w.finished
}

// TestExecuteProgramSteadyStateAllocs extends the metrics AllocsPerRun
// discipline to the executor: once buffers, offsets and metric handles are
// warm, a full allgather round (every rank staging sends into pooled
// buffers, lending them to the runtime, consuming and recycling receives)
// must not allocate. Channel signalling of the harness itself is
// allocation-free, so the measurement isolates the execute path.
func TestExecuteProgramSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on channel/pool operations")
	}
	const p, blk = 4, 64
	prog, err := scheduleProgram(AlgRing, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.EnsureExecutable(); err != nil {
		t.Fatal(err)
	}
	want := expected(p, blk)
	w := startSteadyWorld(p, func(c *mpi.Comm) error {
		recv := recvScratch[c.Rank()]
		if err := ExecuteAllgather(c, prog, inputs[c.Rank()], recv, nil); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d: wrong allgather output", c.Rank())
		}
		return nil
	})
	defer func() {
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}()
	// Warm the pools, the inbox capacities and the memoized offset table
	// beyond AllocsPerRun's own single warm-up run.
	for i := 0; i < 8; i++ {
		if err := w.round(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := w.round(); err != nil {
			t.Fatal(err)
		}
	})
	// One full round is p ranks × (p-1) sends and receives — 24 messages.
	// The measured value is 0; the threshold leaves room for a stray GC
	// clearing the buffer pool mid-measurement, while still failing if
	// per-step garbage (formerly ≥2 allocations per send) returns.
	if avg > 0.5 {
		t.Errorf("steady-state allgather round allocates %.2f times, want 0", avg)
	}
}

// TestExecuteGatherSteadyStateAllocs extends the gate to the gather's
// staging buffer: non-root ranks stage their p-block buffer from the mpi
// buffer pool, so an off-root binomial gather round allocates nothing once
// warm.
func TestExecuteGatherSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on channel/pool operations")
	}
	const p, blk, root = 4, 64, 2
	prog := rootedProgramFor(t, sched.FamilyGather, "binomial-gather", p, root)
	if err := prog.EnsureExecutable(); err != nil {
		t.Fatal(err)
	}
	want := expected(p, blk)
	w := startSteadyWorld(p, func(c *mpi.Comm) error {
		var recv []byte
		if c.Rank() == root {
			recv = recvScratch[c.Rank()]
		}
		if err := ExecuteGather(c, prog, root, inputs[c.Rank()], recv); err != nil {
			return err
		}
		if c.Rank() == root && !bytes.Equal(recv, want) {
			return fmt.Errorf("root %d: wrong gather output", root)
		}
		return nil
	})
	defer func() {
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 8; i++ {
		if err := w.round(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := w.round(); err != nil {
			t.Fatal(err)
		}
	})
	// Threshold as in TestExecuteProgramSteadyStateAllocs; a fresh staging
	// buffer per non-root rank would read 3.
	if avg > 0.5 {
		t.Errorf("steady-state gather round allocates %.2f times, want 0", avg)
	}
}

var (
	inputs      = [][]byte{input(0, 64), input(1, 64), input(2, 64), input(3, 64)}
	recvScratch = [][]byte{
		make([]byte, 4*64), make([]byte, 4*64), make([]byte, 4*64), make([]byte, 4*64),
	}
)

// TestFrontDoorProgramWarmAllocs pins every rule-selected front door's
// program resolution to the recipe-keyed compile cache: once warm, the
// allgather (scheduleProgram, which Allgather, Reordered.Allgather and
// runFlat share), allreduce, all-to-all and rooted (baselineProgram, shared
// by Alltoall, Reordered.Alltoall and the rooted front doors at any root)
// selections allocate nothing — so they neither build a schedule, nor
// relabel it to its root, nor fingerprint it — and count only cache hits.
func TestFrontDoorProgramWarmAllocs(t *testing.T) {
	const p = 64
	tuning := DefaultTuning()
	lookups := []struct {
		name    string
		resolve func() (*sched.Program, error)
	}{
		{"allgather/recursive-doubling", func() (*sched.Program, error) { return scheduleProgram(AlgRecursiveDoubling, p) }},
		{"allgather/ring", func() (*sched.Program, error) { return scheduleProgram(AlgRing, p) }},
		{"allgather/neighbor-exchange p=1", func() (*sched.Program, error) { return scheduleProgram(AlgNeighborExchange, 1) }},
		{"allreduce/rabenseifner", func() (*sched.Program, error) {
			prog, _, err := tuning.allreduceProgram(p, 65536)
			return prog, err
		}},
		{"allreduce/tree", func() (*sched.Program, error) {
			prog, _, err := tuning.allreduceProgram(p, 1024)
			return prog, err
		}},
		{"alltoall/bruck", func() (*sched.Program, error) { return baselineProgram(sched.FamilyAlltoall, p, p*1024, 0) }},
		{"alltoall/pairwise", func() (*sched.Program, error) { return baselineProgram(sched.FamilyAlltoall, p, p*4096, 0) }},
		{"bcast/off-root", func() (*sched.Program, error) { return baselineProgram(sched.FamilyBroadcast, p, 65536, 37) }},
		{"gather/off-root", func() (*sched.Program, error) { return baselineProgram(sched.FamilyGather, p, 1024, 21) }},
		{"scatter/off-root", func() (*sched.Program, error) { return baselineProgram(sched.FamilyScatter, p, 1024, p-1) }},
	}
	for _, l := range lookups {
		want, err := l.resolve()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		h0, m0 := sched.CompileCacheCounters()
		var got *sched.Program
		allocs := testing.AllocsPerRun(50, func() {
			got, err = l.resolve()
		})
		h1, m1 := sched.CompileCacheCounters()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if got != want {
			t.Errorf("%s: warm lookup returned a distinct program", l.name)
		}
		if allocs != 0 {
			t.Errorf("%s: warm lookup allocates %.1f times, want 0", l.name, allocs)
		}
		// AllocsPerRun runs the function once more than it averages over.
		if m1 != m0 || h1-h0 != 51 {
			t.Errorf("%s: warm lookups counted %d hits and %d misses, want 51 and 0", l.name, h1-h0, m1-m0)
		}
	}
}
