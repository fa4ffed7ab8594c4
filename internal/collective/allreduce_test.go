package collective

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// sumOp adds little-endian uint64 vectors.
func sumOp(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := binary.LittleEndian.Uint64(dst[i:])
		b := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], a+b)
	}
}

// allreduceWant returns the expected elementwise sum for p ranks whose
// element j is rank*j+1.
func allreduceWant(p, elems int) []uint64 {
	out := make([]uint64, elems)
	for r := 0; r < p; r++ {
		for j := 0; j < elems; j++ {
			out[j] += uint64(r*j + 1)
		}
	}
	return out
}

func runAllreduce(t *testing.T, p, elems int, fn func(c *mpi.Comm, buf []byte) error) {
	t.Helper()
	want := allreduceWant(p, elems)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		buf := make([]byte, elems*8)
		for j := 0; j < elems; j++ {
			binary.LittleEndian.PutUint64(buf[j*8:], uint64(c.Rank()*j+1))
		}
		if err := fn(c, buf); err != nil {
			return err
		}
		for j := 0; j < elems; j++ {
			if got := binary.LittleEndian.Uint64(buf[j*8:]); got != want[j] {
				return fmt.Errorf("rank %d elem %d: got %d want %d", c.Rank(), j, got, want[j])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlatAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33} {
		runAllreduce(t, p, 4, func(c *mpi.Comm, buf []byte) error {
			return Allreduce(c, buf, sumOp)
		})
	}
}

func TestHierarchicalAllreduce(t *testing.T) {
	for _, shape := range [][2]int{{1, 4}, {2, 4}, {4, 2}, {4, 8}, {3, 3}} {
		nodes, ppn := shape[0], shape[1]
		p := nodes * ppn
		nodeOf := func(worldRank int) int { return worldRank / ppn }
		runAllreduce(t, p, 3, func(c *mpi.Comm, buf []byte) error {
			return HierarchicalAllreduce(c, buf, sumOp, nodeOf)
		})
	}
}

func TestHierarchicalAllreduceUnevenNodes(t *testing.T) {
	// Unlike the allgather, the allreduce tolerates uneven node
	// populations: reductions do not concatenate.
	nodeOf := func(worldRank int) int {
		if worldRank < 3 {
			return 0
		}
		return 1
	}
	runAllreduce(t, 5, 2, func(c *mpi.Comm, buf []byte) error {
		return HierarchicalAllreduce(c, buf, sumOp, nodeOf)
	})
}

func TestReduceErrors(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := Allreduce(c, make([]byte, 8), nil); err == nil {
			return fmt.Errorf("nil op accepted")
		}
		if err := HierarchicalAllreduce(c, make([]byte, 8), nil, func(int) int { return 0 }); err == nil {
			return fmt.Errorf("nil op accepted by the hierarchical allreduce")
		}
		if err := Allreduce(c, nil, sumOp); err == nil {
			return fmt.Errorf("empty buffer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSchedule(t *testing.T) {
	s, err := sched.BinomialReduceBroadcast(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reduce stages mirror broadcast stages: total transfer count is
	// 2*(p-1).
	n := 0
	for _, st := range s.Stages {
		n += len(st.Transfers)
	}
	if n != 30 {
		t.Errorf("allreduce schedule has %d transfers, want 30", n)
	}
}

// rabenseifnerProgram is the cached reduce-scatter + allgather (Rabenseifner)
// program over p ranks.
func rabenseifnerProgram(t testing.TB, p int) *sched.Program {
	t.Helper()
	fam, err := sched.FamilyAllreduce.Desc()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fam.BuildCached("reduce-scatter-allgather", p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRabenseifnerAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		elems := 2 * p // divisible by p
		prog := rabenseifnerProgram(t, p)
		runAllreduce(t, p, elems, func(c *mpi.Comm, buf []byte) error {
			return ExecuteAllreduce(c, prog, buf, sumOp)
		})
	}
}

func TestRabenseifnerMatchesFlatAllreduce(t *testing.T) {
	// Same reduction as the binomial reduce+broadcast front door, computed
	// by a completely different data movement.
	const p, elems = 8, 16
	prog := rabenseifnerProgram(t, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		fill := func(buf []byte) {
			for j := 0; j < elems; j++ {
				putU64(buf[j*8:], uint64(c.Rank()*j+1))
			}
		}
		got, want := make([]byte, elems*8), make([]byte, elems*8)
		fill(got)
		fill(want)
		if err := ExecuteAllreduce(c, prog, got, sumOp); err != nil {
			return err
		}
		if err := Allreduce(c, want, sumOp); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: Rabenseifner differs from the flat allreduce", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func TestRabenseifnerErrors(t *testing.T) {
	fam, err := sched.FamilyAllreduce.Desc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fam.BuildCached("reduce-scatter-allgather", 3); err == nil {
		t.Error("non-power-of-two accepted")
	}
	prog := rabenseifnerProgram(t, 4)
	err = mpi.Run(4, func(c *mpi.Comm) error {
		if err := ExecuteAllreduce(c, prog, make([]byte, 6), sumOp); err == nil {
			return fmt.Errorf("indivisible buffer accepted")
		}
		if err := ExecuteAllreduce(c, prog, make([]byte, 8), nil); err == nil {
			return fmt.Errorf("nil op accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterAllgatherSchedule(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 64} {
		s, err := sched.ReduceScatterAllgather(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		logp := bits.Len(uint(p)) - 1
		if got := len(s.Stages); got != 2*logp {
			t.Errorf("p=%d: %d stages, want %d", p, got, 2*logp)
		}
		// The allgather half (the last log2 p stages) must on its own
		// deliver every chunk everywhere from the owns-one-chunk state.
		ag := &sched.Schedule{Name: "rab-allgather-half", P: p, Stages: s.Stages[logp:]}
		if err := ag.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: allgather half: %v", p, err)
		}
		// Volume: both halves move p-1 chunks per rank in total.
		if got, want := s.TotalBlocksMoved(), int64(2*p*(p-1)); got != want {
			t.Errorf("p=%d: moved %d chunk-messages, want %d", p, got, want)
		}
	}
	if _, err := sched.ReduceScatterAllgather(6); err == nil {
		t.Error("non-power-of-two accepted")
	}
}
