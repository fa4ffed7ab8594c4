package collective

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// countNamed tallies collective enter/exit annotations per name.
func countNamed(rec *trace.Recorder, kind trace.Kind) map[string]int {
	out := map[string]int{}
	for _, e := range rec.All() {
		if e.Kind == kind {
			out[e.Name]++
		}
	}
	return out
}

func TestAllgatherAnnotatesTrace(t *testing.T) {
	const p, blk = 4, 16
	for _, alg := range []Algorithm{AlgRing, AlgRecursiveDoubling, AlgBruck} {
		rec := trace.NewRecorder()
		err := mpi.Run(p, func(c *mpi.Comm) error {
			send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
			recv := make([]byte, p*blk)
			return Allgather(c, send, recv, alg)
		}, mpi.WithTracer(rec))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		name := "allgather/" + alg.String()
		enters := countNamed(rec, trace.KindCollectiveEnter)
		exits := countNamed(rec, trace.KindCollectiveExit)
		if enters[name] != p || exits[name] != p {
			t.Errorf("%v: enter/exit = %d/%d, want %d/%d (all: %v)",
				alg, enters[name], exits[name], p, p, enters)
		}
	}
}

func TestRingStagesAnnotated(t *testing.T) {
	const p, blk = 4, 8
	rec := trace.NewRecorder()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgRing)
	}, mpi.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(trace.KindPoint); got != p*(p-1) {
		t.Errorf("stage points = %d, want %d", got, p*(p-1))
	}
}

// TestHierarchicalPhasesAnnotated: the hierarchical allgather is one
// compiled program, so its trace is the executor's allgather/<program> span
// with one stage point per executed stage, and its flight-recorder profile
// times every pricing stage of the composition.
func TestHierarchicalPhasesAnnotated(t *testing.T) {
	const p, blk = 8, 8
	cfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling}
	nodeOf := func(worldRank int) int { return worldRank / 2 }
	s, err := sched.Hierarchical(sched.Groups([]int{0, 1, 2, 3, 4, 5, 6, 7}, nodeOf), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.EnsureExecutable(); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	flight := obs.NewRecorder(4)
	err = mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Flight: flight})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
		recv := make([]byte, p*blk)
		return HierarchicalAllgather(c, send, recv, nodeOf, cfg)
	}, mpi.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	enters := countNamed(rec, trace.KindCollectiveEnter)
	exits := countNamed(rec, trace.KindCollectiveExit)
	span := "allgather/" + prog.Name
	if enters[span] != p || exits[span] != p {
		t.Errorf("span %q enter/exit = %d/%d, want %d/%d (all: %v)", span, enters[span], exits[span], p, p, enters)
	}
	points := 0
	for r := 0; r < p; r++ {
		cur := int32(-1)
		for _, st := range prog.RankSteps(r) {
			if st.Stage != cur {
				points++
				cur = st.Stage
			}
		}
	}
	if got := rec.Count(trace.KindPoint); got != points {
		t.Errorf("stage points = %d, want %d", got, points)
	}
	profiles := flight.Snapshot()
	if len(profiles) != 1 {
		t.Fatalf("flight recorder holds %d profiles, want 1", len(profiles))
	}
	if got := profiles[0]; got.Program != prog.Name || int(got.Stages) != len(prog.Stages) {
		t.Errorf("profile %q with %d stages, want %q with %d", got.Program, got.Stages, prog.Name, len(prog.Stages))
	}
}

func TestUntracedWorldRecordsNothing(t *testing.T) {
	const p, blk = 4, 8
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Tracing() {
			t.Error("Tracing() true without a tracer")
		}
		send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgRing)
	})
	if err != nil {
		t.Fatal(err)
	}
}
