// Package collective runs MPI collectives — allgather, allreduce,
// broadcast, gather, scatter, all-to-all, and the hierarchical compositions
// of paper Section II — on top of the mpi runtime, with one engine: every
// front door resolves a compiled sched.Program (a synthesized table entry,
// or the hand-coded selection rules' builder relabelled to the caller's
// root) and the generic schedule executor moves the bytes. The program the
// executor runs is the one simnet prices, so the cost model and the runtime
// cannot drift apart. Hand-written per-algorithm loops survive only in this
// package's tests, as the reference each family's programs are checked
// against byte for byte.
//
// Placement carries the paper's in-algorithm order fix: the executor stores
// each incoming block at the output offset of its *original* contributor,
// so a reordered communicator needs no extra order-preservation mechanism
// for the ring (Section V-B).
package collective

import (
	"fmt"

	"repro/internal/mpi"
)

// Placement maps a block identifier — for allgather programs, a
// communicator rank — to the output-buffer block position of that block. A
// nil Placement is the identity (the normal MPI_Allgather contract).
// Reordered communicators pass the mapping so that the executor deposits
// blocks at original-rank offsets.
type Placement func(commRank int) int

func position(place Placement, r int) int {
	if place == nil {
		return r
	}
	return place(r)
}

// tagOrderFix tags the initComm order-fix exchange of Reordered.Allgather;
// the executor tags its stages from tagSchedule. Successive collectives on
// one communicator may reuse tags safely because the runtime matches
// (src, tag) in FIFO order.
const tagOrderFix = 4 << 20

// checkAllgatherArgs validates the common allgather buffer contract.
func checkAllgatherArgs(c *mpi.Comm, send, recv []byte) (blk int, err error) {
	blk = len(send)
	if blk == 0 {
		return 0, fmt.Errorf("collective: empty send buffer")
	}
	if len(recv) != blk*c.Size() {
		return 0, fmt.Errorf("collective: recv buffer is %d bytes, want %d (%d ranks x %d)",
			len(recv), blk*c.Size(), c.Size(), blk)
	}
	return blk, nil
}
