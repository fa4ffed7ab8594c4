package collective

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// BenchmarkScheduleExecutor measures the schedule pipeline's three costs:
// cold compile (pricing view + executable expansion), warm compile (a cache
// hit), and end-to-end execution on the goroutine runtime, compared against
// the hand-written ring reference loop at the same scale.
func BenchmarkScheduleExecutor(b *testing.B) {
	for _, p := range []int{64, 256, 1024} {
		s, err := sched.Ring(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("CompileCold/p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.ResetCompileCache()
				prog, err := sched.CompileCached(s)
				if err != nil {
					b.Fatal(err)
				}
				if err := prog.EnsureExecutable(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CompileWarm/p%d", p), func(b *testing.B) {
			sched.ResetCompileCache()
			if _, err := sched.CompileCached(s); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.CompileCached(s); err != nil {
					b.Fatal(err)
				}
			}
		})
		// RecipeWarm is the front doors' lookup: keyed by recipe, so it
		// skips the build and the fingerprint CompileWarm still pays.
		b.Run(fmt.Sprintf("RecipeWarm/p%d", p), func(b *testing.B) {
			if _, err := scheduleProgram(AlgRing, p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scheduleProgram(AlgRing, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// SteadyState isolates the executor step loop from world construction:
	// a persistent world executes one allgather per iteration, so ns/op and
	// allocs/op reflect executeProgram's steady state. The step loop is
	// allocation-free (0 allocs/op): payload buffers cycle through the
	// mpi buffer pool, offsets are memoized per (program, blk) and metric
	// handles are cached per program name. SteadyStateLegacy runs the ring
	// reference loop in the identical harness — the pair pins the
	// executor's data-path overhead without mpi.Run construction noise.
	for _, tc := range []struct {
		alg Algorithm
		p   int
	}{{AlgRing, 4}, {AlgRing, 16}, {AlgRecursiveDoubling, 16}} {
		prog, err := scheduleProgram(tc.alg, tc.p)
		if err != nil {
			b.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			b.Fatal(err)
		}
		const blk = 64
		send := make([][]byte, tc.p)
		recv := make([][]byte, tc.p)
		for r := 0; r < tc.p; r++ {
			send[r] = input(r, blk)
			recv[r] = make([]byte, tc.p*blk)
		}
		steady := func(name string, body func(c *mpi.Comm) error) {
			b.Run(fmt.Sprintf("%s/%v/p%d", name, tc.alg, tc.p), func(b *testing.B) {
				w := startSteadyWorld(tc.p, body)
				defer func() {
					if err := w.close(); err != nil {
						b.Fatal(err)
					}
				}()
				for i := 0; i < 8; i++ {
					if err := w.round(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := w.round(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		steady("SteadyState", func(c *mpi.Comm) error {
			return ExecuteAllgather(c, prog, send[c.Rank()], recv[c.Rank()], nil)
		})
		if tc.alg == AlgRing {
			steady("SteadyStateLegacy", func(c *mpi.Comm) error {
				return refRingAllgather(c, send[c.Rank()], recv[c.Rank()], nil)
			})
		}
	}

	execCases := []struct {
		alg Algorithm
		p   int
	}{
		{AlgRecursiveDoubling, 64},
		{AlgRecursiveDoubling, 256},
		{AlgRecursiveDoubling, 1024},
		{AlgRing, 64},
		{AlgRing, 256},
	}
	const blk = 64
	for _, tc := range execCases {
		prog, err := scheduleProgram(tc.alg, tc.p)
		if err != nil {
			b.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Execute/%v/p%d", tc.alg, tc.p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(tc.p, func(c *mpi.Comm) error {
					recv := make([]byte, tc.p*blk)
					return ExecuteAllgather(c, prog, input(c.Rank(), blk), recv, nil)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		if tc.alg != AlgRing {
			continue
		}
		b.Run(fmt.Sprintf("ExecuteLegacy/%v/p%d", tc.alg, tc.p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(tc.p, func(c *mpi.Comm) error {
					recv := make([]byte, tc.p*blk)
					return refRingAllgather(c, input(c.Rank(), blk), recv, nil)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
