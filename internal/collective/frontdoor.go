package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/synth"
)

// The rooted front doors. Each resolves its program through rootedProgram —
// the world's synth.Selector entry when that program is rooted at the
// caller's root, otherwise the family's baseline builder relabelled to the
// root (Family.BuildCachedAt) — and runs it on the schedule executor.
// Synthesized programs are rooted where the search rooted them (rank 0 for
// every current builder), so off-root calls run the baseline at their root.

// Broadcast is the MPI_Bcast front door: root's data reaches every rank.
func Broadcast(c *mpi.Comm, root int, data []byte) error {
	prog, err := rootedProgram(c, sched.FamilyBroadcast, len(data), root)
	if err != nil {
		return err
	}
	return tracedExecute(c, "bcast", prog.Name, func() error {
		return ExecuteBroadcast(c, prog, data)
	})
}

// Gather is the MPI_Gather front door: every rank contributes send and the
// root's recv (one block per rank) ends up in rank order.
func Gather(c *mpi.Comm, root int, send, recv []byte) error {
	prog, err := rootedProgram(c, sched.FamilyGather, len(send), root)
	if err != nil {
		return err
	}
	return tracedExecute(c, "gather", prog.Name, func() error {
		return ExecuteGather(c, prog, root, send, recv)
	})
}

// Scatter is the MPI_Scatter front door: the root's data (one block per
// rank) is distributed so rank r receives block r in out.
func Scatter(c *mpi.Comm, root int, data, out []byte) error {
	prog, err := rootedProgram(c, sched.FamilyScatter, len(out), root)
	if err != nil {
		return err
	}
	return tracedExecute(c, "scatter", prog.Name, func() error {
		return ExecuteScatter(c, prog, data, out)
	})
}

// rootedProgram resolves a rooted front door's program for root: the synth
// table's entry when it is rooted there, else the family baseline rooted
// there.
func rootedProgram(c *mpi.Comm, f sched.FamilyID, payloadBytes, root int) (*sched.Program, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("collective: %v root %d outside communicator of size %d", f, root, c.Size())
	}
	if prog, ok := synthProgram(c, f, payloadBytes, root); ok {
		return prog, nil
	}
	return baselineProgram(f, c.Size(), payloadBytes, root)
}

// synthProgram consults the world's synthesized selection table for family f
// at the given payload. root filters rooted programs (-1 accepts any): a
// table entry rooted elsewhere than the caller's root cannot serve the call,
// counts as a table miss and falls through to the hand-coded selection.
func synthProgram(c *mpi.Comm, f synth.Family, payloadBytes, root int) (*sched.Program, bool) {
	if payloadBytes <= 0 {
		return nil, false
	}
	return configOf(c).Synth.ProgramAt(f, c.Size(), payloadBytes, root)
}

// baselineProgram resolves the family's hand-coded baseline selection for p
// ranks at the given payload, rooted at root (0 for unrooted families), to
// its cached program by recipe — the front doors' shared fallback when the
// synth table misses.
func baselineProgram(f sched.FamilyID, p, payloadBytes, root int) (*sched.Program, error) {
	fam, err := f.Desc()
	if err != nil {
		return nil, err
	}
	return fam.BuildCachedAt(fam.Baseline(p, payloadBytes), p, root)
}

// tracedExecute wraps one front-door execution in the collective metrics
// scope and the family/program trace span — the boilerplate every front door
// used to open-code.
func tracedExecute(c *mpi.Comm, famName, progName string, run func() error) error {
	defer beginCollective(progName)()
	name := famName + "/" + progName
	c.TraceEnter(name)
	defer c.TraceExit(name)
	return run()
}
