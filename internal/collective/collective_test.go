package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// input returns the deterministic test contribution of a rank.
func input(rank, blk int) []byte {
	b := make([]byte, blk)
	for i := range b {
		b[i] = byte(rank*131 + i*17 + 3)
	}
	return b
}

// expected returns the oracle allgather output for p ranks.
func expected(p, blk int) []byte {
	out := make([]byte, 0, p*blk)
	for r := 0; r < p; r++ {
		out = append(out, input(r, blk)...)
	}
	return out
}

// runAllgather drives fn on a world of p ranks and checks the output.
func runAllgather(t *testing.T, p, blk int, fn func(c *mpi.Comm, send, recv []byte) error) {
	t.Helper()
	want := expected(p, blk)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := input(c.Rank(), blk)
		recv := make([]byte, p*blk)
		if err := fn(c, send, recv); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d: wrong allgather output", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// frontDoor returns the Allgather front door forced to alg.
func frontDoor(alg Algorithm) func(c *mpi.Comm, send, recv []byte) error {
	return func(c *mpi.Comm, send, recv []byte) error { return Allgather(c, send, recv, alg) }
}

func TestRingAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33} {
		runAllgather(t, p, 16, frontDoor(AlgRing))
	}
}

func TestRecursiveDoublingAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		runAllgather(t, p, 16, frontDoor(AlgRecursiveDoubling))
	}
}

func TestRecursiveDoublingRejectsNonPowerOfTwo(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		send := input(c.Rank(), 8)
		recv := make([]byte, 3*8)
		if err := Allgather(c, send, recv, AlgRecursiveDoubling); err == nil {
			return fmt.Errorf("p=3 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBruckAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31} {
		runAllgather(t, p, 16, frontDoor(AlgBruck))
	}
}

func TestNeighborExchangeAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 8, 12, 16, 30} {
		runAllgather(t, p, 16, frontDoor(AlgNeighborExchange))
	}
}

func TestNeighborExchangeRejectsOdd(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if err := Allgather(c, make([]byte, 4), make([]byte, 12), AlgNeighborExchange); err == nil {
			return fmt.Errorf("odd size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborExchangeWithPlacement(t *testing.T) {
	// Reversed placement relocates every contributor's block.
	const p, blk = 8, 8
	prog, err := scheduleProgram(AlgNeighborExchange, p)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(p, func(c *mpi.Comm) error {
		place := func(r int) int { return p - 1 - r }
		recv := make([]byte, p*blk)
		if err := ExecuteAllgather(c, prog, input(c.Rank(), blk), recv, place); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if !bytes.Equal(recv[(p-1-r)*blk:(p-r)*blk], input(r, blk)) {
				return fmt.Errorf("block of rank %d misplaced", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherArgChecks(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := Allgather(c, nil, make([]byte, 4), AlgRing); err == nil {
			return fmt.Errorf("empty send accepted")
		}
		if err := Allgather(c, make([]byte, 4), make([]byte, 4), AlgRing); err == nil {
			return fmt.Errorf("short recv accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBinomialBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33} {
		for _, root := range []int{0, p - 1, p / 2} {
			msg := input(root, 64)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				buf := make([]byte, 64)
				if c.Rank() == root {
					copy(buf, msg)
				}
				if err := Broadcast(c, root, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, msg) {
					return fmt.Errorf("rank %d has wrong broadcast data", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBroadcastRootChecks(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := Broadcast(c, 5, make([]byte, 4)); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		if err := Broadcast(c, -1, make([]byte, 4)); err == nil {
			return fmt.Errorf("negative root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rootedProgramFor compiles family builder name over p ranks at root.
func rootedProgramFor(t testing.TB, f sched.FamilyID, name string, p, root int) *sched.Program {
	t.Helper()
	fam, err := f.Desc()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fam.BuildCachedAt(name, p, root)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func testGather(t *testing.T, gather func(c *mpi.Comm, root int, send, recv []byte) error) {
	t.Helper()
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16} {
		for _, root := range []int{0, p - 1} {
			want := expected(p, 16)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				send := input(c.Rank(), 16)
				var recv []byte
				if c.Rank() == root {
					recv = make([]byte, p*16)
				}
				if err := gather(c, root, send, recv); err != nil {
					return err
				}
				if c.Rank() == root && !bytes.Equal(recv, want) {
					return fmt.Errorf("root assembled wrong buffer")
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBinomialGather(t *testing.T) { testGather(t, Gather) }

func TestLinearGather(t *testing.T) {
	testGather(t, func(c *mpi.Comm, root int, send, recv []byte) error {
		prog := rootedProgramFor(t, sched.FamilyGather, "linear-gather", c.Size(), root)
		return ExecuteGather(c, prog, root, send, recv)
	})
}

func TestGatherWithPlacement(t *testing.T) {
	// Reversed placement must land blocks reversed: the executor relocates
	// blocks of any program, not only allgathers.
	const p, blk = 4, 8
	prog := rootedProgramFor(t, sched.FamilyGather, "binomial-gather", p, 0)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		place := func(r int) int { return p - 1 - r }
		buf := make([]byte, p*blk)
		copy(buf[place(c.Rank())*blk:], input(c.Rank(), blk))
		if err := executeProgram(c, prog, buf, blk, place, nil); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 0; r < p; r++ {
				if !bytes.Equal(buf[(p-1-r)*blk:(p-r)*blk], input(r, blk)) {
					return fmt.Errorf("placement wrong for rank %d", r)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelect(t *testing.T) {
	cases := []struct {
		alg  Algorithm
		p    int
		blk  int
		want Algorithm
	}{
		{AlgAuto, 64, 512, AlgRecursiveDoubling},
		{AlgAuto, 64, 4096, AlgRing},
		{AlgAuto, 48, 512, AlgBruck},
		{AlgAuto, 48, 40960, AlgRing},
		{AlgRing, 64, 16, AlgRing},
		{AlgBruck, 64, 1 << 20, AlgBruck},
	}
	for _, tc := range cases {
		if got := Select(tc.alg, tc.p, tc.blk); got != tc.want {
			t.Errorf("Select(%v,%d,%d) = %v, want %v", tc.alg, tc.p, tc.blk, got, tc.want)
		}
	}
}

func TestTuning(t *testing.T) {
	custom := Tuning{RingThreshold: 4096}
	if got := custom.Select(AlgAuto, 64, 2048); got != AlgRecursiveDoubling {
		t.Errorf("raised threshold ignored: %v", got)
	}
	if got := custom.Select(AlgAuto, 64, 8192); got != AlgRing {
		t.Errorf("above raised threshold: %v", got)
	}
	var zero Tuning // zero value must behave like the defaults
	if got := zero.Select(AlgAuto, 64, 512); got != Select(AlgAuto, 64, 512) {
		t.Errorf("zero tuning diverges from defaults: %v", got)
	}
	if got := zero.Select(AlgRing, 64, 4); got != AlgRing {
		t.Errorf("explicit algorithm overridden: %v", got)
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{AlgAuto, AlgRecursiveDoubling, AlgRing, AlgBruck, Algorithm(77)} {
		if a.String() == "" {
			t.Errorf("empty string for %d", uint8(a))
		}
	}
}

func TestAllgatherFrontDoor(t *testing.T) {
	for _, blk := range []int{16, 4096} {
		for _, p := range []int{8, 12} {
			runAllgather(t, p, blk, func(c *mpi.Comm, send, recv []byte) error {
				return Allgather(c, send, recv, AlgAuto)
			})
		}
	}
}

// randomMapping builds a random valid mapping fixing rank 0 (as the
// heuristics do).
func randomMapping(p int, rnd *rand.Rand) core.Mapping {
	m := core.Identity(p)
	for i := 1; i < p; i++ {
		j := 1 + rnd.Intn(i)
		m[i], m[j] = m[j], m[i]
	}
	return m
}

func TestReorderedAllgatherAllModes(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, p := range []int{2, 4, 8, 16} {
		for _, mode := range []sched.OrderMode{sched.InitComm, sched.EndShuffle} {
			for _, alg := range []Algorithm{AlgRecursiveDoubling, AlgRing, AlgBruck, AlgAuto} {
				if alg == AlgRecursiveDoubling && p&(p-1) != 0 {
					continue
				}
				m := randomMapping(p, rnd)
				blk := 16
				want := expected(p, blk)
				err := mpi.Run(p, func(c *mpi.Comm) error {
					re, err := NewReordered(c, m, mode)
					if err != nil {
						return err
					}
					send := input(c.Rank(), blk)
					// The reordered comm's processes contribute their
					// *original* inputs: process with old rank s holds
					// input(s); in the new comm it has rank inv[s].
					recv := make([]byte, p*blk)
					if err := re.Allgather(send, recv, alg); err != nil {
						return err
					}
					if !bytes.Equal(recv, want) {
						return fmt.Errorf("old rank %d: output out of order (mode=%v alg=%v p=%d)",
							c.Rank(), mode, alg, p)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d mode=%v alg=%v: %v", p, mode, alg, err)
				}
			}
		}
	}
}

func TestReorderedAllgatherIdentityMapping(t *testing.T) {
	const p, blk = 8, 32
	want := expected(p, blk)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		re, err := NewReordered(c, core.Identity(p), sched.InitComm)
		if err != nil {
			return err
		}
		recv := make([]byte, p*blk)
		if err := re.Allgather(input(c.Rank(), blk), recv, AlgRecursiveDoubling); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("identity reorder broke output")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReorderedAccessors(t *testing.T) {
	const p = 4
	m := core.Mapping{0, 2, 1, 3}
	err := mpi.Run(p, func(c *mpi.Comm) error {
		re, err := NewReordered(c, m, sched.InitComm)
		if err != nil {
			return err
		}
		if re.Comm() == nil {
			return fmt.Errorf("nil reordered comm")
		}
		if got := re.Mapping(); len(got) != p || got[1] != 2 {
			return fmt.Errorf("mapping accessor wrong: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalAllgather(t *testing.T) {
	type cfg = sched.HierarchicalConfig
	configs := []cfg{
		{Intra: sched.Linear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.Linear, Inter: sched.InterRing},
		{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.NonLinear, Inter: sched.InterRing},
	}
	for _, c := range configs {
		for _, shape := range [][2]int{{1, 4}, {2, 4}, {4, 4}, {8, 2}, {4, 8}} {
			nodes, ppn := shape[0], shape[1]
			if c.Inter == sched.InterRecursiveDoubling && nodes&(nodes-1) != 0 {
				continue
			}
			p := nodes * ppn
			blk := 16
			want := expected(p, blk)
			nodeOf := func(worldRank int) int { return worldRank / ppn }
			err := mpi.Run(p, func(mc *mpi.Comm) error {
				send := input(mc.Rank(), blk)
				recv := make([]byte, p*blk)
				if err := HierarchicalAllgather(mc, send, recv, nodeOf, c); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("rank %d wrong hierarchical output", mc.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v nodes=%d ppn=%d: %v", c, nodes, ppn, err)
			}
		}
	}
}

func TestHierarchicalAllgatherCyclicGrouping(t *testing.T) {
	// Ranks spread cyclically over nodes (non-contiguous groups): blocks
	// carry their contributor's identity through the compiled schedule, so
	// the output is still in rank order.
	const nodes, ppn = 4, 2
	p := nodes * ppn
	blk := 8
	want := expected(p, blk)
	nodeOf := func(worldRank int) int { return worldRank % nodes }
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := input(c.Rank(), blk)
		recv := make([]byte, p*blk)
		cfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling}
		if err := HierarchicalAllgather(c, send, recv, nodeOf, cfg); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d wrong output under cyclic grouping", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalRejectsNonUniformNodes(t *testing.T) {
	// 3 ranks on node 0, 1 on node 1.
	nodeOf := func(worldRank int) int {
		if worldRank < 3 {
			return 0
		}
		return 1
	}
	err := mpi.Run(4, func(c *mpi.Comm) error {
		send := input(c.Rank(), 4)
		recv := make([]byte, 4*4)
		cfg := sched.HierarchicalConfig{Intra: sched.Linear, Inter: sched.InterRing}
		err := HierarchicalAllgather(c, send, recv, nodeOf, cfg)
		if err == nil {
			return fmt.Errorf("non-uniform nodes accepted")
		}
		return nil // every rank must see an error
	}, mpi.WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierarchicalProgramMemoized: a world compiles each node grouping's
// program once — a repeated call costs no compile-cache lookup — and a
// different grouping on the same world gets its own program.
func TestHierarchicalProgramMemoized(t *testing.T) {
	const p, blk = 8, 8
	cfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRing}
	byTwo := func(worldRank int) int { return worldRank / 2 }
	byFour := func(worldRank int) int { return worldRank / 4 }
	want := expected(p, blk)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		// lookups runs one call on every rank between barriers and returns,
		// on rank 0, the compile-cache lookups it made.
		lookups := func(nodeOf func(worldRank int) int) (uint64, error) {
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			h0, m0 := sched.CompileCacheCounters()
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			recv := make([]byte, p*blk)
			if err := HierarchicalAllgather(c, input(c.Rank(), blk), recv, nodeOf, cfg); err != nil {
				return 0, err
			}
			if !bytes.Equal(recv, want) {
				return 0, fmt.Errorf("rank %d: wrong hierarchical output", c.Rank())
			}
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			h1, m1 := sched.CompileCacheCounters()
			return h1 - h0 + m1 - m0, nil
		}
		if _, err := lookups(byTwo); err != nil {
			return err
		}
		again, err := lookups(byTwo)
		if err != nil {
			return err
		}
		other, err := lookups(byFour)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && again != 0 {
			return fmt.Errorf("a repeated call made %d compile-cache lookups, want 0", again)
		}
		if c.Rank() == 0 && other == 0 {
			return fmt.Errorf("a new grouping reused the memoized program")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
