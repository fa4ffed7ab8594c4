// The runtime half of the collective family registry. Package sched owns the
// static half of a family registration (base builders, Verify contract,
// payload sizing, baseline rule, selection-table bucketing); this file owns
// what only the mpi runtime layer can supply — how the generic schedule
// executor enters a compiled program of the family, and the hand-written
// legacy reference loop the executor is equivalence-tested against. sched
// cannot import this package (collective sits above it), so the runtime
// entries register here keyed by the same sched.FamilyID, and adding a
// collective family means one sched.RegisterFamily plus one
// registerFamilyRuntime — no switch edits across layers.
package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/synth"
)

// familyRuntime is one family's runtime registration under the normalized
// harness contract the cross-family equivalence suites drive: rank r
// contributes in, the collective's result lands in out, rooted collectives
// root at rank 0, and reductions combine with byte-wise addition. Production
// front doors keep their MPI-shaped signatures and call the same executor
// entries these adapters wrap.
type familyRuntime struct {
	// inBytes/outBytes size the harness buffers for p ranks at blk bytes per
	// block.
	inBytes  func(p, blk int) int
	outBytes func(p, blk int) int
	// exec runs a compiled program of this family through the generic
	// schedule executor.
	exec func(c *mpi.Comm, prog *sched.Program, in, out []byte) error
	// legacy is the hand-written reference loop. It is the semantic oracle:
	// a correct program of the family must reproduce its output bytes
	// regardless of which builder produced the program.
	legacy func(c *mpi.Comm, in, out []byte) error
}

var familyRuntimes = map[sched.FamilyID]familyRuntime{}

// registerFamilyRuntime installs a family's runtime entries (init-time;
// duplicate registration is a programming error).
func registerFamilyRuntime(id sched.FamilyID, rt familyRuntime) {
	if _, dup := familyRuntimes[id]; dup {
		panic(fmt.Sprintf("collective: runtime for family %v registered twice", id))
	}
	familyRuntimes[id] = rt
}

// harnessReduce is the byte-wise addition the normalized allreduce harness
// combines with (associative, commutative, and sensitive to dropped or
// double-counted contributions mod 256).
func harnessReduce(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// synthProgram consults the world's synthesized selection table for family f
// at the given payload. root filters rooted programs (-1 accepts any): a
// table entry rooted elsewhere than the caller's root cannot serve the call
// and falls through to the hand-coded selection.
func synthProgram(c *mpi.Comm, f synth.Family, payloadBytes, root int) (*sched.Program, bool) {
	if payloadBytes <= 0 {
		return nil, false
	}
	prog, ok := configOf(c).Synth.Program(f, c.Size(), payloadBytes)
	if !ok {
		return nil, false
	}
	if root >= 0 && prog.Root != root {
		return nil, false
	}
	return prog, true
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

// baselineProgram resolves the family's hand-coded baseline selection for p
// ranks at the given payload to its cached program by recipe — the front
// doors' shared fallback when the synth table misses.
func baselineProgram(f sched.FamilyID, p, payloadBytes int) (*sched.Program, error) {
	fam, err := f.Desc()
	if err != nil {
		return nil, err
	}
	return fam.BuildCached(fam.Baseline(p, payloadBytes), p)
}

func init() {
	registerFamilyRuntime(sched.FamilyAllgather, familyRuntime{
		inBytes:  func(p, blk int) int { return blk },
		outBytes: func(p, blk int) int { return p * blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			return ExecuteAllgather(c, prog, in, out, nil)
		},
		legacy: func(c *mpi.Comm, in, out []byte) error {
			return RingAllgather(c, in, out, nil)
		},
	})
	registerFamilyRuntime(sched.FamilyAllreduce, familyRuntime{
		// The reduction buffer is p blocks wide so that every registered
		// builder's block count (1 for the binomial tree, p for
		// reduce-scatter + allgather) divides it.
		inBytes:  func(p, blk int) int { return p * blk },
		outBytes: func(p, blk int) int { return p * blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			copy(out, in)
			return ExecuteAllreduce(c, prog, out, harnessReduce)
		},
		legacy: func(c *mpi.Comm, in, out []byte) error {
			copy(out, in)
			return AllreduceLegacy(c, out, harnessReduce)
		},
	})
	registerFamilyRuntime(sched.FamilyBroadcast, familyRuntime{
		inBytes:  func(p, blk int) int { return p * blk },
		outBytes: func(p, blk int) int { return p * blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			if c.Rank() == prog.Root {
				copy(out, in)
			}
			return ExecuteBroadcast(c, prog, out)
		},
		legacy: func(c *mpi.Comm, in, out []byte) error {
			if c.Rank() == 0 {
				copy(out, in)
			}
			return BinomialBroadcast(c, 0, out)
		},
	})
	registerFamilyRuntime(sched.FamilyGather, familyRuntime{
		inBytes:  func(p, blk int) int { return blk },
		outBytes: func(p, blk int) int { return p * blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			var recv []byte
			if c.Rank() == prog.Root {
				recv = out
			}
			return ExecuteGather(c, prog, prog.Root, in, recv)
		},
		legacy: func(c *mpi.Comm, in, out []byte) error {
			var recv []byte
			if c.Rank() == 0 {
				recv = out
			}
			return BinomialGather(c, 0, in, recv, nil)
		},
	})
	registerFamilyRuntime(sched.FamilyScatter, familyRuntime{
		inBytes:  func(p, blk int) int { return p * blk },
		outBytes: func(p, blk int) int { return blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			var data []byte
			if c.Rank() == prog.Root {
				data = in
			}
			return ExecuteScatter(c, prog, data, out)
		},
		legacy: func(c *mpi.Comm, in, out []byte) error {
			var data []byte
			if c.Rank() == 0 {
				data = in
			}
			return BinomialScatter(c, 0, data, out)
		},
	})
	registerFamilyRuntime(sched.FamilyAlltoall, familyRuntime{
		inBytes:  func(p, blk int) int { return p * blk },
		outBytes: func(p, blk int) int { return p * blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			return ExecuteAlltoall(c, prog, in, out)
		},
		legacy: AlltoallLegacy,
	})
}
