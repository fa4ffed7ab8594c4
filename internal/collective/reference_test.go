// Hand-written reference loops, one per collective family, and the runtime
// half of the family registry that pairs each family's executor entry with
// its reference. The references are the semantic oracles: a correct program
// of a family, whichever builder produced it, must reproduce its
// reference's output bytes. Production code runs every collective on the
// schedule executor; these loops exist only to check it.
package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// Reference tag bases, 2^20 apart and distinct from the executor's
// tagSchedule, so a test may run a reference and the executor back to back
// in one world.
const (
	tagRefRing = (iota + 1) << 20
	tagRefGather
	tagRefBcast
	tagRefReduce
	tagRefScatter
	tagRefAlltoall
)

// refRingAllgather is the ring allgather: p-1 stages, each forwarding the
// most recently received block to rank+1. place relocates every
// contributor's block in the output, as the executor's Placement does.
func refRingAllgather(c *mpi.Comm, send, recv []byte, place Placement) error {
	blk, err := checkAllgatherArgs(c, send, recv)
	if err != nil {
		return err
	}
	p, me := c.Size(), c.Rank()
	copy(recv[position(place, me)*blk:], send)
	next, prev := sched.RingNext(me, p), sched.RingPrev(me, p)
	for t := 0; t < p-1; t++ {
		// Forward the block contributed by rank (me - t); receive the one
		// contributed by rank (me - 1 - t).
		outOwner := position(place, sched.RingSendOwner(me, t, p))
		if err := c.Send(next, tagRefRing+t, recv[outOwner*blk:(outOwner+1)*blk]); err != nil {
			return err
		}
		in, err := c.Recv(prev, tagRefRing+t)
		if err != nil {
			return err
		}
		if len(in) != blk {
			return fmt.Errorf("reference ring stage %d received %d bytes, want %d", t, len(in), blk)
		}
		copy(recv[position(place, sched.RingRecvOwner(me, t, p))*blk:], in)
	}
	return nil
}

// virtualRank returns me's position in the binomial tree rooted at root.
func virtualRank(me, root, p int) int { return ((me-root)%p + p) % p }

// subtreeSize returns the number of virtual ranks in the binomial subtree
// rooted at vr within a tree of p ranks.
func subtreeSize(vr, p int) int {
	if vr == 0 {
		return p
	}
	size := vr & (-vr) // lowest set bit
	if vr+size > p {
		size = p - vr
	}
	return size
}

// refBroadcast broadcasts data (same length on every rank; the root's
// content wins) along the clear-lowest-bit binomial tree rooted at root.
func refBroadcast(c *mpi.Comm, root int, data []byte) error {
	p, me := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return fmt.Errorf("reference broadcast root %d outside communicator of size %d", root, p)
	}
	vr := virtualRank(me, root, p)
	mask := 1
	for ; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			in, err := c.Recv((vr-mask+root)%p, tagRefBcast+mask)
			if err != nil {
				return err
			}
			if len(in) != len(data) {
				return fmt.Errorf("reference broadcast received %d bytes, want %d", len(in), len(data))
			}
			copy(data, in)
			break
		}
	}
	// Forward to children, largest subtree first.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < p {
			if err := c.Send((vr+mask+root)%p, tagRefBcast+mask, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// refGather gathers one block from every rank to root along the binomial
// tree; on the root, recv (p blocks) ends in rank order. recv is ignored on
// other ranks.
func refGather(c *mpi.Comm, root int, send, recv []byte) error {
	p, me := c.Size(), c.Rank()
	blk := len(send)
	if blk == 0 {
		return fmt.Errorf("reference gather: empty send buffer")
	}
	if root < 0 || root >= p {
		return fmt.Errorf("reference gather root %d outside communicator of size %d", root, p)
	}
	if me == root && len(recv) != p*blk {
		return fmt.Errorf("reference gather recv buffer is %d bytes, want %d", len(recv), p*blk)
	}
	vr := virtualRank(me, root, p)
	// tmp accumulates the contiguous virtual-rank range [vr, vr+cnt).
	tmp := make([]byte, subtreeSize(vr, p)*blk)
	copy(tmp, send)
	cnt := 1
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			return c.Send((vr-mask+root)%p, tagRefGather+mask, tmp[:cnt*blk])
		}
		if vr+mask < p {
			in, err := c.Recv((vr+mask+root)%p, tagRefGather+mask)
			if err != nil {
				return err
			}
			if want := subtreeSize(vr+mask, p) * blk; len(in) != want {
				return fmt.Errorf("reference gather received %d bytes from child, want %d", len(in), want)
			}
			copy(tmp[cnt*blk:], in)
			cnt += len(in) / blk
		}
	}
	// tmp[j] is the block of virtual rank j = comm rank (j + root) mod p.
	for j := 0; j < p; j++ {
		r := (j + root) % p
		copy(recv[r*blk:], tmp[j*blk:(j+1)*blk])
	}
	return nil
}

// refScatter distributes root's buffer along the binomial tree: rank r ends
// with chunk r in out. data is read on the root only.
func refScatter(c *mpi.Comm, root int, data, out []byte) error {
	p, me := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return fmt.Errorf("reference scatter root %d outside communicator of size %d", root, p)
	}
	chunk := len(out)
	if chunk == 0 {
		return fmt.Errorf("reference scatter: empty chunk")
	}
	if me == root && len(data) != p*chunk {
		return fmt.Errorf("reference scatter data is %d bytes, want %d", len(data), p*chunk)
	}
	vr := virtualRank(me, root, p)
	// tmp holds the contiguous virtual-rank range [vr, vr+span) this rank
	// distributes.
	var tmp []byte
	if me == root {
		tmp = make([]byte, p*chunk)
		for j := 0; j < p; j++ {
			r := (j + root) % p
			copy(tmp[j*chunk:], data[r*chunk:(r+1)*chunk])
		}
	} else {
		low := vr & (-vr)
		in, err := c.Recv((vr-low+root)%p, tagRefScatter+low)
		if err != nil {
			return err
		}
		if want := subtreeSize(vr, p) * chunk; len(in) != want {
			return fmt.Errorf("reference scatter received %d bytes, want %d", len(in), want)
		}
		tmp = in
	}
	span := subtreeSize(vr, p)
	top := 1
	for top < span {
		top <<= 1
	}
	for pow := top >> 1; pow >= 1; pow >>= 1 {
		child := vr + pow
		if pow >= span || child >= p {
			continue
		}
		size := subtreeSize(child, p)
		if err := c.Send((child+root)%p, tagRefScatter+pow, tmp[pow*chunk:(pow+size)*chunk]); err != nil {
			return err
		}
	}
	copy(out, tmp[:chunk])
	return nil
}

// refAllreduce combines buf in place on every rank: binomial reduce into
// rank 0 (children combined in ascending stride order), then refBroadcast.
func refAllreduce(c *mpi.Comm, buf []byte, op ReduceOp) error {
	p, me := c.Size(), c.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		if me&mask != 0 {
			if err := c.Send(me-mask, tagRefReduce+mask, buf); err != nil {
				return err
			}
			break
		}
		if me+mask < p {
			in, err := c.Recv(me+mask, tagRefReduce+mask)
			if err != nil {
				return err
			}
			if len(in) != len(buf) {
				return fmt.Errorf("reference reduce received %d bytes, want %d", len(in), len(buf))
			}
			op(buf, in)
		}
	}
	return refBroadcast(c, 0, buf)
}

// refAlltoall is the pairwise exchange: p-1 rounds, round t sending to
// (me+t) mod p and receiving from (me-t) mod p.
func refAlltoall(c *mpi.Comm, send, recv []byte) error {
	blk, err := checkAlltoallArgs(c, send, recv)
	if err != nil {
		return err
	}
	p, me := c.Size(), c.Rank()
	copy(recv[me*blk:(me+1)*blk], send[me*blk:(me+1)*blk])
	for t := 1; t < p; t++ {
		dst, src := (me+t)%p, (me-t+p)%p
		if err := c.Send(dst, tagRefAlltoall+t, send[dst*blk:(dst+1)*blk]); err != nil {
			return err
		}
		in, err := c.Recv(src, tagRefAlltoall+t)
		if err != nil {
			return err
		}
		if len(in) != blk {
			return fmt.Errorf("reference alltoall round %d received %d bytes, want %d", t, len(in), blk)
		}
		copy(recv[src*blk:], in)
	}
	return nil
}

// familyRuntime is one family's runtime registration under the normalized
// harness contract the cross-family equivalence suites drive: rank r
// contributes in, the collective's result lands in out, rooted collectives
// root at rank 0, and reductions combine with byte-wise addition.
// Production front doors keep their MPI-shaped signatures and call the same
// executor entries these adapters wrap.
type familyRuntime struct {
	// inBytes/outBytes size the harness buffers for p ranks at blk bytes per
	// block.
	inBytes  func(p, blk int) int
	outBytes func(p, blk int) int
	// exec runs a compiled program of this family through the generic
	// schedule executor.
	exec func(c *mpi.Comm, prog *sched.Program, in, out []byte) error
	// legacy is the family's hand-written reference loop.
	legacy func(c *mpi.Comm, in, out []byte) error
}

// familyRuntimes is keyed by the sched.FamilyID the static half of each
// family registers under.
var familyRuntimes = map[sched.FamilyID]familyRuntime{
	sched.FamilyAllgather: {
		inBytes:  func(p, blk int) int { return blk },
		outBytes: func(p, blk int) int { return p * blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			return ExecuteAllgather(c, prog, in, out, nil)
		},
		legacy: func(c *mpi.Comm, in, out []byte) error {
			return refRingAllgather(c, in, out, nil)
		},
	},
	sched.FamilyAllreduce: {
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
			return refAllreduce(c, out, harnessReduce)
		},
	},
	sched.FamilyBroadcast: {
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
			return refBroadcast(c, 0, out)
		},
	},
	sched.FamilyGather: {
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
			return refGather(c, 0, in, recv)
		},
	},
	sched.FamilyScatter: {
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
			return refScatter(c, 0, data, out)
		},
	},
	sched.FamilyAlltoall: {
		inBytes:  func(p, blk int) int { return p * blk },
		outBytes: func(p, blk int) int { return p * blk },
		exec: func(c *mpi.Comm, prog *sched.Program, in, out []byte) error {
			return ExecuteAlltoall(c, prog, in, out)
		},
		legacy: refAlltoall,
	},
}

// harnessReduce is the byte-wise addition the normalized allreduce harness
// combines with (associative, commutative, and sensitive to dropped or
// double-counted contributions mod 256).
func harnessReduce(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}
