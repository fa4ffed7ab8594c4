package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// runBoth runs the executor path and the family's reference loop in one
// world and demands byte-identical outputs on every rank: the pinning
// contract of the Schedule-IR unification.
func runBoth(t *testing.T, p int, executor, reference func(c *mpi.Comm, out []byte) error, outBytes int) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		got := make([]byte, outBytes)
		if err := executor(c, got); err != nil {
			return fmt.Errorf("executor: %w", err)
		}
		want := make([]byte, outBytes)
		if err := reference(c, want); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: executor output differs from the reference", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecutorMatchesLegacyAllgather(t *testing.T) {
	cases := []struct {
		alg Algorithm
		ps  []int
	}{
		{AlgRecursiveDoubling, []int{1, 2, 4, 8, 16}},
		{AlgRing, []int{1, 2, 3, 5, 8, 12}},
		{AlgBruck, []int{1, 2, 3, 5, 7, 11, 16}},
		{AlgNeighborExchange, []int{1, 2, 6, 10}},
	}
	for _, tc := range cases {
		for _, p := range tc.ps {
			for _, blk := range []int{1, 7, 64} {
				t.Run(fmt.Sprintf("%v/p%d/blk%d", tc.alg, p, blk), func(t *testing.T) {
					runBoth(t, p,
						func(c *mpi.Comm, out []byte) error {
							return Allgather(c, input(c.Rank(), blk), out, tc.alg)
						},
						func(c *mpi.Comm, out []byte) error {
							return refRingAllgather(c, input(c.Rank(), blk), out, nil)
						},
						p*blk)
				})
			}
		}
	}
}

// TestExecutorMatchesLegacyPlaced pins the place-based in-algorithm order
// fix: the executor must deposit blocks at exactly the offsets the placed
// ring reference uses, for random rank reorderings.
func TestExecutorMatchesLegacyPlaced(t *testing.T) {
	const blk = 16
	rnd := rand.New(rand.NewSource(7))
	for _, alg := range []Algorithm{AlgRing, AlgNeighborExchange} {
		for _, p := range []int{2, 6, 12} {
			m := randomMapping(p, rnd)
			place := func(j int) int { return m[j] }
			t.Run(fmt.Sprintf("%v/p%d", alg, p), func(t *testing.T) {
				prog, err := scheduleProgram(alg, p)
				if err != nil {
					t.Fatal(err)
				}
				runBoth(t, p,
					func(c *mpi.Comm, out []byte) error {
						return ExecuteAllgather(c, prog, input(c.Rank(), blk), out, place)
					},
					func(c *mpi.Comm, out []byte) error {
						return refRingAllgather(c, input(c.Rank(), blk), out, place)
					},
					p*blk)
			})
		}
	}
}

// TestExecutorMatchesLegacyReordered runs the full Reordered front door
// (which compiles and executes schedules) against the standard contract for
// every order-preservation mode.
func TestExecutorMatchesLegacyReordered(t *testing.T) {
	const blk = 8
	rnd := rand.New(rand.NewSource(11))
	for _, alg := range []Algorithm{AlgRing, AlgRecursiveDoubling, AlgBruck, AlgNeighborExchange} {
		for _, mode := range []sched.OrderMode{sched.InitComm, sched.EndShuffle} {
			p := 8
			m := randomMapping(p, rnd)
			t.Run(fmt.Sprintf("%v/%v", alg, mode), func(t *testing.T) {
				err := mpi.Run(p, func(c *mpi.Comm) error {
					r, err := NewReordered(c, m, mode)
					if err != nil {
						return err
					}
					recv := make([]byte, p*blk)
					if err := r.Allgather(input(c.Rank(), blk), recv, alg); err != nil {
						return err
					}
					if !bytes.Equal(recv, expected(p, blk)) {
						return fmt.Errorf("rank %d: reordered output violates the original-rank contract", c.Rank())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestExecutorMatchesLegacyAllreduce(t *testing.T) {
	const elems = 4
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			runBoth(t, p,
				func(c *mpi.Comm, out []byte) error {
					for i := 0; i < elems; i++ {
						putU64(out[i*8:], uint64(c.Rank()+i))
					}
					return Allreduce(c, out, sumOp)
				},
				func(c *mpi.Comm, out []byte) error {
					for i := 0; i < elems; i++ {
						putU64(out[i*8:], uint64(c.Rank()+i))
					}
					return refAllreduce(c, out, sumOp)
				},
				elems*8)
		})
	}
}

func TestExecutorMatchesLegacyRabenseifner(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		elems := 2 * p // blk is a multiple of the 8-byte element
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			s, err := sched.ReduceScatterAllgather(p)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sched.CompileCached(s)
			if err != nil {
				t.Fatal(err)
			}
			runBoth(t, p,
				func(c *mpi.Comm, out []byte) error {
					for i := 0; i < elems; i++ {
						putU64(out[i*8:], uint64(c.Rank()*100+i))
					}
					return ExecuteAllreduce(c, prog, out, sumOp)
				},
				func(c *mpi.Comm, out []byte) error {
					for i := 0; i < elems; i++ {
						putU64(out[i*8:], uint64(c.Rank()*100+i))
					}
					return refAllreduce(c, out, sumOp)
				},
				elems*8)
		})
	}
}

// TestAllreduceSelection pins the size/shape selection table.
func TestAllreduceSelection(t *testing.T) {
	cases := []struct {
		p, n int
		want string
	}{
		{8, RabenseifnerThresholdBytes, "rabenseifner"},
		{8, RabenseifnerThresholdBytes - 8, "allreduce"}, // below threshold
		{6, RabenseifnerThresholdBytes, "allreduce"},     // non power of two
		{8, RabenseifnerThresholdBytes + 4, "allreduce"}, // indivisible
		{1, RabenseifnerThresholdBytes, "allreduce"},     // single rank
	}
	for _, tc := range cases {
		_, label, err := DefaultTuning().allreduceProgram(tc.p, tc.n)
		if err != nil {
			t.Fatalf("p=%d n=%d: %v", tc.p, tc.n, err)
		}
		if label != tc.want {
			t.Errorf("p=%d n=%d: selected %q, want %q", tc.p, tc.n, label, tc.want)
		}
	}
}

// TestAllreduceFrontDoorLargeBuffer routes a threshold-sized buffer through
// the front door, which must take the Rabenseifner schedule and still match
// the reference flat allreduce byte for byte.
func TestAllreduceFrontDoorLargeBuffer(t *testing.T) {
	const p = 8
	n := RabenseifnerThresholdBytes // divisible by 8 ranks and by 8-byte elems
	runBoth(t, p,
		func(c *mpi.Comm, out []byte) error {
			for i := 0; i < len(out)/8; i++ {
				putU64(out[i*8:], uint64(c.Rank()+i))
			}
			return Allreduce(c, out, sumOp)
		},
		func(c *mpi.Comm, out []byte) error {
			for i := 0; i < len(out)/8; i++ {
				putU64(out[i*8:], uint64(c.Rank()+i))
			}
			return refAllreduce(c, out, sumOp)
		},
		n)
}

func TestExecutorMatchesLegacyTrees(t *testing.T) {
	const blk = 24
	for _, p := range []int{1, 2, 5, 8, 13} {
		bcastProg := func(t *testing.T, build func(int) (*sched.Schedule, error)) *sched.Program {
			t.Helper()
			s, err := build(p)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sched.CompileCached(s)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}
		t.Run(fmt.Sprintf("binomial-broadcast/p%d", p), func(t *testing.T) {
			prog := bcastProg(t, func(p int) (*sched.Schedule, error) { return sched.BinomialBroadcast(p, 1) })
			runBoth(t, p,
				func(c *mpi.Comm, out []byte) error {
					if c.Rank() == 0 {
						copy(out, input(0, blk))
					}
					return ExecuteBroadcast(c, prog, out)
				},
				func(c *mpi.Comm, out []byte) error {
					if c.Rank() == 0 {
						copy(out, input(0, blk))
					}
					return refBroadcast(c, 0, out)
				},
				blk)
		})
		if p > 1 { // the scatter-allgather broadcast needs p chunks
			t.Run(fmt.Sprintf("scatter-allgather-broadcast/p%d", p), func(t *testing.T) {
				prog := bcastProg(t, sched.ScatterAllgatherBroadcast)
				runBoth(t, p,
					func(c *mpi.Comm, out []byte) error {
						if c.Rank() == 0 {
							copy(out, expected(p, blk))
						}
						return ExecuteBroadcast(c, prog, out)
					},
					func(c *mpi.Comm, out []byte) error {
						if c.Rank() == 0 {
							copy(out, expected(p, blk))
						}
						return refBroadcast(c, 0, out)
					},
					p*blk)
			})
		}
		t.Run(fmt.Sprintf("binomial-scatter/p%d", p), func(t *testing.T) {
			prog := bcastProg(t, sched.BinomialScatter)
			runBoth(t, p,
				func(c *mpi.Comm, out []byte) error {
					var data []byte
					if c.Rank() == 0 {
						data = expected(p, blk)
					}
					return ExecuteScatter(c, prog, data, out)
				},
				func(c *mpi.Comm, out []byte) error {
					var data []byte
					if c.Rank() == 0 {
						data = expected(p, blk)
					}
					return refScatter(c, 0, data, out)
				},
				blk)
		})
		t.Run(fmt.Sprintf("binomial-gather/p%d", p), func(t *testing.T) {
			prog := bcastProg(t, sched.BinomialGather)
			gatherOut := func(c *mpi.Comm) []byte {
				if c.Rank() == 0 {
					return make([]byte, p*blk)
				}
				return nil
			}
			err := mpi.Run(p, func(c *mpi.Comm) error {
				got := gatherOut(c)
				if err := ExecuteGather(c, prog, 0, input(c.Rank(), blk), got); err != nil {
					return fmt.Errorf("executor: %w", err)
				}
				want := gatherOut(c)
				if err := refGather(c, 0, input(c.Rank(), blk), want); err != nil {
					return fmt.Errorf("reference: %w", err)
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d: gather outputs differ", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScheduleHierarchicalAllgather runs every hierarchical configuration
// as one compiled program over four 3-rank nodes.
func TestScheduleHierarchicalAllgather(t *testing.T) {
	const blk = 8
	nodeOf := func(worldRank int) int { return worldRank / 3 }
	p := 12
	for _, cfg := range []sched.HierarchicalConfig{
		{Intra: sched.Linear, Inter: sched.InterRing},
		{Intra: sched.NonLinear, Inter: sched.InterRing},
		{Intra: sched.Linear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling},
	} {
		t.Run(fmt.Sprintf("%v-%v", cfg.Intra, cfg.Inter), func(t *testing.T) {
			err := mpi.Run(p, func(c *mpi.Comm) error {
				recv := make([]byte, p*blk)
				if err := HierarchicalAllgather(c, input(c.Rank(), blk), recv, nodeOf, cfg); err != nil {
					return err
				}
				if !bytes.Equal(recv, expected(p, blk)) {
					return fmt.Errorf("rank %d: hierarchical schedule output wrong", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExecutorCacheReuse asserts the front door hits the compiled-schedule
// cache on repeated calls of one shape.
func TestExecutorCacheReuse(t *testing.T) {
	sched.ResetCompileCache()
	h0, m0 := sched.CompileCacheCounters()
	const p, blk = 4, 16
	for i := 0; i < 3; i++ {
		err := mpi.Run(p, func(c *mpi.Comm) error {
			recv := make([]byte, p*blk)
			return Allgather(c, input(c.Rank(), blk), recv, AlgRing)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := sched.CompileCacheCounters()
	if m1-m0 != 1 {
		t.Errorf("3 identical collectives compiled %d times, want 1", m1-m0)
	}
	// 3 runs x 4 ranks = 12 lookups, all but the first a hit.
	if h1-h0 != 11 {
		t.Errorf("cache hits delta = %d, want 11", h1-h0)
	}
}

// TestExecutorErrors covers the executor wrappers' contract checks.
func TestExecutorErrors(t *testing.T) {
	ringProg, err := scheduleProgram(AlgRing, 4)
	if err != nil {
		t.Fatal(err)
	}
	rsag, err := sched.ReduceScatterAllgather(4)
	if err != nil {
		t.Fatal(err)
	}
	redProg, err := sched.CompileCached(rsag)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		// Program compiled for a different communicator size.
		if err := ExecuteAllgather(c, ringProg, make([]byte, 4), make([]byte, 8), nil); err == nil {
			return fmt.Errorf("size mismatch accepted")
		}
		// Reduction program through the allgather wrapper.
		if err := ExecuteAllgather(c, redProg, make([]byte, 4), make([]byte, 8), nil); err == nil {
			return fmt.Errorf("reduction program accepted as allgather")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Allreduce(nil, make([]byte, 8), nil); err == nil {
		t.Error("nil op accepted")
	}
}
