package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/synth"
)

// ReduceOp combines src into dst element-wise; both slices have equal
// length. It must be associative and commutative for tree reductions.
type ReduceOp func(dst, src []byte)

// RabenseifnerThresholdBytes is the buffer size at and above which Allreduce
// prefers the reduce-scatter + allgather (Rabenseifner) schedule when the
// communicator shape admits it, matching the large-message switch point of
// MPI libraries.
const RabenseifnerThresholdBytes = 32768

// allreduceBuilder picks the allreduce family builder for p ranks and an
// n-byte buffer under the tuning's threshold — the Rabenseifner
// reduce-scatter + allgather for large buffers on power-of-two communicators
// whose buffer divides into p blocks, the binomial reduce + broadcast tree
// otherwise — and the label its executions are traced and counted under.
func (t Tuning) allreduceBuilder(p, n int) (builder, label string) {
	threshold := t.RabenseifnerThreshold
	if threshold <= 0 {
		threshold = RabenseifnerThresholdBytes
	}
	if p > 1 && p&(p-1) == 0 && n%p == 0 && n >= threshold {
		return "reduce-scatter-allgather", "rabenseifner"
	}
	return "allreduce", "allreduce"
}

// allreduceProgram resolves the hand-coded allreduce selection to its cached
// compiled program by recipe.
func (t Tuning) allreduceProgram(p, n int) (*sched.Program, string, error) {
	builder, label := t.allreduceBuilder(p, n)
	fam, err := sched.FamilyAllreduce.Desc()
	if err != nil {
		return nil, "", err
	}
	prog, err := fam.BuildCached(builder, p)
	return prog, label, err
}

// Allreduce combines buf in place across all ranks. The world's synthesized
// schedule table (Config.Synth) is consulted first; on a miss the buffer
// shape and the world's Tuning threshold select between the Rabenseifner
// reduce-scatter + allgather schedule and the binomial reduce + broadcast
// tree. The compiled schedule runs on the generic executor. op must be
// associative and commutative.
func Allreduce(c *mpi.Comm, buf []byte, op ReduceOp) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	if prog, ok := synthProgram(c, synth.Allreduce, len(buf), -1); ok {
		return tracedExecute(c, "allreduce", prog.Name, func() error {
			return ExecuteAllreduce(c, prog, buf, op)
		})
	}
	prog, label, err := configOf(c).Tuning.allreduceProgram(c.Size(), len(buf))
	if err != nil {
		return err
	}
	return tracedExecute(c, "allreduce", label, func() error {
		return ExecuteAllreduce(c, prog, buf, op)
	})
}
