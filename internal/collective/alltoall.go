package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/synth"
)

// checkAlltoallArgs validates the MPI_Alltoall buffer contract: both buffers
// carry one equal-size block per rank, with send block d destined to rank d
// and recv block s arriving from rank s.
func checkAlltoallArgs(c *mpi.Comm, send, recv []byte) (blk int, err error) {
	p := c.Size()
	if len(send) == 0 || len(send)%p != 0 {
		return 0, fmt.Errorf("collective: alltoall send buffer of %d bytes does not divide into %d blocks",
			len(send), p)
	}
	if len(recv) != len(send) {
		return 0, fmt.Errorf("collective: alltoall recv buffer is %d bytes, want %d", len(recv), len(send))
	}
	return len(send) / p, nil
}

// ExecuteAlltoall runs a compiled all-to-all program (InitSlab over the p^2
// pair-block space): send block d reaches rank d, recv block s arrives from
// rank s. The executor works over a p^2-block scratch buffer — rank r's send
// row occupies its initialisation slab (blocks r*p..(r+1)*p-1, matching
// sched's pairBlock numbering), and the delivered column s*p+me is extracted
// into recv afterwards.
func ExecuteAlltoall(c *mpi.Comm, prog *sched.Program, send, recv []byte) error {
	blk, err := checkAlltoallArgs(c, send, recv)
	if err != nil {
		return err
	}
	p, me := c.Size(), c.Rank()
	if prog.Init != sched.InitSlab || prog.Blocks != p*p {
		return fmt.Errorf("collective: program %q is not an all-to-all program for %d ranks", prog.Name, p)
	}
	// Not drawn from mpi.GetBuf like the gather and scatter staging: the
	// p²-block buffer is large (4 MiB at p=64, 1 KiB per pair), and the one
	// variable-capacity pool would then lend it out for small in-flight
	// messages, inflating resident memory.
	buf := make([]byte, prog.Blocks*blk)
	copy(buf[me*p*blk:], send)
	if err := executeProgram(c, prog, buf, blk, nil, nil); err != nil {
		return err
	}
	for s := 0; s < p; s++ {
		pair := s*p + me
		copy(recv[s*blk:(s+1)*blk], buf[pair*blk:(pair+1)*blk])
	}
	return nil
}

// Alltoall is the MPI_Alltoall front door: send block d reaches rank d's
// recv block for the caller's rank. The world's synthesized selection table
// is consulted first — on a torus that serves the dimension-wise
// direct-connect schedule in the small-message regime — and on a miss the
// family registry's baseline rule selects Bruck for small per-pair payloads
// and pairwise exchange above, compiled and run on the schedule executor.
func Alltoall(c *mpi.Comm, send, recv []byte) error {
	if _, err := checkAlltoallArgs(c, send, recv); err != nil {
		return err
	}
	if prog, ok := synthProgram(c, synth.Alltoall, len(send), -1); ok {
		return tracedExecute(c, "alltoall", prog.Name, func() error {
			return ExecuteAlltoall(c, prog, send, recv)
		})
	}
	prog, err := baselineProgram(sched.FamilyAlltoall, c.Size(), len(send), 0)
	if err != nil {
		return err
	}
	return tracedExecute(c, "alltoall", prog.Name, func() error {
		return ExecuteAlltoall(c, prog, send, recv)
	})
}

// Alltoall performs the topology-aware all-to-all over the reordered
// communicator while send/recv keep the *original* rank contract: send block
// d is for original rank d, recv block s is from original rank s. The
// relabelling rides the executor's Placement hook over the p^2 pair-block
// space — pair block (s, d) of the reordered schedule lives at the buffer
// offset of original pair (mapping[s], mapping[d]) — so, like the ring
// allgather's in-algorithm fix, order preservation costs no extra traffic.
func (r *Reordered) Alltoall(send, recv []byte) error {
	blk, err := checkAlltoallArgs(r.re, send, recv)
	if err != nil {
		return err
	}
	defer beginCollective("reordered")()
	p := r.re.Size()
	prog, ok := synthProgram(r.re, synth.Alltoall, len(send), -1)
	if !ok {
		if prog, err = baselineProgram(sched.FamilyAlltoall, p, len(send), 0); err != nil {
			return err
		}
	}
	if prog.Init != sched.InitSlab || prog.Blocks != p*p {
		return fmt.Errorf("collective: program %q is not an all-to-all program for %d ranks", prog.Name, p)
	}
	name := "alltoall/" + prog.Name
	r.re.TraceEnter(name)
	defer r.re.TraceExit(name)
	place := func(b int) int { return r.mapping[b/p]*p + r.mapping[b%p] }
	meOld := r.mapping[r.re.Rank()]
	buf := make([]byte, prog.Blocks*blk)
	// My slab rows are pair blocks (me, d); under place they sit at original
	// row meOld in original column order — exactly the caller's send layout.
	copy(buf[meOld*p*blk:], send)
	if err := executeProgram(r.re, prog, buf, blk, place, nil); err != nil {
		return err
	}
	for sOld := 0; sOld < p; sOld++ {
		pair := sOld*p + meOld
		copy(recv[sOld*blk:(sOld+1)*blk], buf[pair*blk:(pair+1)*blk])
	}
	return nil
}
