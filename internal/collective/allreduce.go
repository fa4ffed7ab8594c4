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

// tag base for reductions.
const tagReduce = 5 << 20

// BinomialReduce reduces every rank's buf into the root along the binomial
// tree (mirror image of the binomial broadcast, so the BGMH mapping
// rationale applies: message sizes are fixed but the fan-in pattern matches
// the gather tree). On return the root's buf holds the combined value;
// other ranks' buffers are unspecified scratch.
func BinomialReduce(c *mpi.Comm, root int, buf []byte, op ReduceOp) error {
	p, me := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return fmt.Errorf("collective: reduce root %d outside communicator of size %d", root, p)
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	defer beginCollective("binomial-reduce")()
	vr := ((me-root)%p + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			parent := (vr - mask + root) % p
			return c.Send(parent, tagReduce+maskLog(mask), buf)
		}
		if vr+mask < p {
			child := (vr + mask + root) % p
			in, err := c.Recv(child, tagReduce+maskLog(mask))
			if err != nil {
				return err
			}
			if len(in) != len(buf) {
				return fmt.Errorf("collective: reduce received %d bytes, want %d", len(in), len(buf))
			}
			op(buf, in)
		}
	}
	return nil
}

// HierarchicalAllreduce implements the paper's future-work extension: a
// topology-friendly MPI_Allreduce composed of an intra-node binomial reduce
// into the leaders, a leader-level reduce + broadcast, and an intra-node
// binomial broadcast — reusing exactly the patterns BGMH and BBMH optimise.
// nodeID groups world ranks into nodes; buf is combined in place on every
// rank.
func HierarchicalAllreduce(c *mpi.Comm, buf []byte, op ReduceOp, nodeID func(worldRank int) int) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	defer beginCollective("hierarchical-allreduce")()
	nodeComm, err := c.Split(nodeID(c.WorldRank()), c.Rank())
	if err != nil {
		return err
	}
	if nodeComm == nil {
		return fmt.Errorf("collective: allreduce node split produced no communicator")
	}
	isLeader := nodeComm.Rank() == 0
	leaderColor := -1
	if isLeader {
		leaderColor = 0
	}
	leaderComm, err := c.Split(leaderColor, c.Rank())
	if err != nil {
		return err
	}
	// Phase 1: reduce within each node.
	if err := BinomialReduce(nodeComm, 0, buf, op); err != nil {
		return err
	}
	// Phase 2: reduce among leaders, then broadcast the result back to
	// them (a reduce+bcast allreduce, as in hierarchical MPI libraries).
	if isLeader {
		if err := BinomialReduce(leaderComm, 0, buf, op); err != nil {
			return err
		}
		if err := BinomialBroadcast(leaderComm, 0, buf); err != nil {
			return err
		}
	}
	// Phase 3: broadcast inside each node.
	return BinomialBroadcast(nodeComm, 0, buf)
}

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

// AllreduceLegacy is the hand-written flat fallback: binomial reduce to rank
// 0 followed by binomial broadcast. Kept as the equivalence baseline.
func AllreduceLegacy(c *mpi.Comm, buf []byte, op ReduceOp) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	defer beginCollective("allreduce")()
	if err := BinomialReduce(c, 0, buf, op); err != nil {
		return err
	}
	return BinomialBroadcast(c, 0, buf)
}

// AllreduceSchedule builds the priceable schedule of the flat allreduce: the
// binomial reduce stages (fixed-size messages, since reductions combine
// rather than concatenate) followed by the binomial broadcast stages. It
// delegates to the sched builder the executor runs, so the benchmarked
// schedule is the executed one.
func AllreduceSchedule(p int) (*sched.Schedule, error) {
	return sched.BinomialReduceBroadcast(p)
}
