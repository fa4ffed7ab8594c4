// Package osu mirrors the measurement protocol of the OSU micro-benchmarks
// used in the paper's evaluation (osu_allgather): for each message size,
// time the collective over a number of iterations after a warmup, and report
// the average latency.
//
// Two backends are provided. The model backend prices schedules on the
// simnet cost model — this is what regenerates the paper's 4096-process
// figures. The runtime backend times the real goroutine MPI runtime with the
// wall clock, usable at laptop scales to sanity-check that the collectives
// actually run.
package osu

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// Sizes returns the OSU-style power-of-two message-size sweep from lo to hi
// bytes inclusive.
func Sizes(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// DefaultSizes is the sweep of the paper's micro-benchmark section: 4 B to
// 256 KB per process (256 KB being the memory-imposed cap at 4096 ranks).
func DefaultSizes() []int { return Sizes(4, 256*1024) }

// ModelLatency prices one allgather execution of schedule s under the given
// placement and per-block message size. The cost model is deterministic, so
// no iteration loop is needed; the value corresponds to the OSU average.
func ModelLatency(m *simnet.Machine, s *sched.Schedule, layout []int, msgBytes int) (float64, error) {
	return m.Price(s, layout, msgBytes)
}

// Improvement returns the percentage improvement of reordered over default
// latency, the quantity plotted in paper Figs. 3 and 4: positive when
// reordering helps.
func Improvement(defaultLatency, reorderedLatency float64) float64 {
	if defaultLatency == 0 {
		return 0
	}
	return (defaultLatency - reorderedLatency) / defaultLatency * 100
}

// RuntimeResult is one row of a runtime measurement.
type RuntimeResult struct {
	Bytes   int
	Latency time.Duration // average per-iteration latency
}

// MeasureRuntime times the real goroutine runtime performing an allgather of
// msgBytes per process over p ranks with the given algorithm, averaging
// iters iterations after warmup. It returns the average latency observed by
// rank 0. Extra world options (mpi.WithTracer, mpi.WithStats, ...) are
// passed through to the measured world.
func MeasureRuntime(p, msgBytes int, alg collective.Algorithm, warmup, iters int, opts ...mpi.Option) (RuntimeResult, error) {
	return measure(p, msgBytes, alg, warmup, iters, collective.Allgather, opts...)
}

func measure(p, msgBytes int, alg collective.Algorithm, warmup, iters int,
	allgather func(*mpi.Comm, []byte, []byte, collective.Algorithm) error, opts ...mpi.Option) (RuntimeResult, error) {
	if iters <= 0 {
		return RuntimeResult{}, fmt.Errorf("osu: iterations must be positive")
	}
	var avg time.Duration
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := make([]byte, msgBytes)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		recv := make([]byte, p*msgBytes)
		for i := 0; i < warmup; i++ {
			if err := allgather(c, send, recv, alg); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := allgather(c, send, recv, alg); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			avg = time.Since(start) / time.Duration(iters)
		}
		return nil
	}, opts...)
	if err != nil {
		return RuntimeResult{}, err
	}
	return RuntimeResult{Bytes: msgBytes, Latency: avg}, nil
}
