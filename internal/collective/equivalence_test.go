package collective

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// scheduleTraffic aggregates the per-pair byte volume a schedule predicts
// for the given per-block message size.
func scheduleTraffic(s *sched.Schedule, blk int) map[[2]int]int64 {
	out := map[[2]int]int64{}
	for _, st := range s.Stages {
		reps := st.Repeat
		if reps < 1 {
			reps = 1
		}
		for _, tr := range st.Transfers {
			out[[2]int{int(tr.Src), int(tr.Dst)}] += int64(reps) * int64(tr.N) * int64(blk)
		}
	}
	return out
}

// matchTraffic runs body on a world of p ranks and requires its
// point-to-point traffic to equal the schedule's prediction at blk bytes
// per block, pair by pair and byte for byte.
func matchTraffic(t *testing.T, s *sched.Schedule, p, blk int, body func(c *mpi.Comm) error) {
	t.Helper()
	want := scheduleTraffic(s, blk)
	stats := mpi.NewStats()
	if err := mpi.Run(p, body, mpi.WithStats(stats)); err != nil {
		t.Fatal(err)
	}
	got := stats.PairBytes()
	for pair, bytes := range want {
		if got[pair] != bytes {
			t.Errorf("pair %v: schedule predicts %d bytes, runtime sent %d", pair, bytes, got[pair])
		}
	}
	for pair, bytes := range got {
		if want[pair] == 0 && bytes != 0 {
			t.Errorf("pair %v: runtime sent %d bytes the schedule does not predict", pair, bytes)
		}
	}
	if stats.TotalBytes() != s.TotalBlocksMoved()*int64(blk) {
		t.Errorf("total: schedule %d bytes, runtime %d", s.TotalBlocksMoved()*int64(blk), stats.TotalBytes())
	}
}

// TestScheduleMatchesRuntimeTraffic cross-validates the cost model against
// the executor: the static schedule simnet prices must predict exactly the
// point-to-point traffic the front door generates when it runs that
// schedule's program.
func TestScheduleMatchesRuntimeTraffic(t *testing.T) {
	const blk = 64
	cases := []struct {
		alg   Algorithm
		p     int
		build func(p int) (*sched.Schedule, error)
	}{
		{AlgRecursiveDoubling, 16, sched.RecursiveDoubling},
		{AlgRing, 12, sched.Ring},
		{AlgBruck, 11, sched.Bruck},
	}
	for _, tc := range cases {
		t.Run(tc.alg.String(), func(t *testing.T) {
			s, err := tc.build(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			matchTraffic(t, s, tc.p, blk, func(c *mpi.Comm) error {
				return Allgather(c, input(c.Rank(), blk), make([]byte, tc.p*blk), tc.alg)
			})
		})
	}
}

// TestScheduleMatchesRuntimeTreeTraffic does the same for the rooted front
// doors (gather, broadcast, scatter), whose transfer sizes vary by stage.
func TestScheduleMatchesRuntimeTreeTraffic(t *testing.T) {
	const blk = 32
	const p = 13
	cases := []struct {
		name  string
		build func() (*sched.Schedule, error)
		run   func(c *mpi.Comm) error
	}{
		{"binomial-gather", func() (*sched.Schedule, error) { return sched.BinomialGather(p) },
			func(c *mpi.Comm) error {
				var recv []byte
				if c.Rank() == 0 {
					recv = make([]byte, p*blk)
				}
				return Gather(c, 0, input(c.Rank(), blk), recv)
			}},
		{"binomial-scatter", func() (*sched.Schedule, error) { return sched.BinomialScatter(p) },
			func(c *mpi.Comm) error {
				var data []byte
				if c.Rank() == 0 {
					data = make([]byte, p*blk)
				}
				return Scatter(c, 0, data, make([]byte, blk))
			}},
		{"binomial-broadcast", func() (*sched.Schedule, error) { return sched.BinomialBroadcast(p, 1) },
			func(c *mpi.Comm) error {
				return Broadcast(c, 0, make([]byte, blk))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			matchTraffic(t, s, p, blk, tc.run)
		})
	}
}

func TestNeighborExchangeScheduleVerifies(t *testing.T) {
	for _, p := range []int{2, 4, 6, 8, 12, 16, 30, 64, 100} {
		s, err := sched.NeighborExchange(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		if got, want := len(s.Stages), p/2; p > 2 && got != want {
			t.Errorf("p=%d: %d stages, want %d", p, got, want)
		}
	}
	if _, err := sched.NeighborExchange(5); err == nil {
		t.Error("odd count accepted")
	}
	if _, err := sched.NeighborExchange(0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestNeighborExchangeScheduleMatchesRuntime(t *testing.T) {
	const p, blk = 12, 32
	s, err := sched.NeighborExchange(p)
	if err != nil {
		t.Fatal(err)
	}
	matchTraffic(t, s, p, blk, func(c *mpi.Comm) error {
		return Allgather(c, input(c.Rank(), blk), make([]byte, p*blk), AlgNeighborExchange)
	})
}

func TestRabenseifnerScheduleMatchesRuntimeTraffic(t *testing.T) {
	const p, elems = 8, 16 // chunk = 2 elems = 16 bytes
	s, err := sched.ReduceScatterAllgather(p)
	if err != nil {
		t.Fatal(err)
	}
	prog := rabenseifnerProgram(t, p)
	matchTraffic(t, s, p, elems*8/p, func(c *mpi.Comm) error {
		buf := make([]byte, elems*8)
		for j := 0; j < elems; j++ {
			putU64(buf[j*8:], uint64(c.Rank()+j))
		}
		return ExecuteAllreduce(c, prog, buf, sumOp)
	})
}

func TestStatsAccessors(t *testing.T) {
	stats := mpi.NewStats()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 10))
		}
		_, err := c.Recv(0, 0)
		return err
	}, mpi.WithStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages(0, 1) != 1 || stats.Bytes(0, 1) != 10 {
		t.Errorf("stats(0->1) = %d msgs, %d bytes", stats.Messages(0, 1), stats.Bytes(0, 1))
	}
	if stats.Messages(1, 0) != 0 {
		t.Error("phantom reverse traffic")
	}
	if stats.TotalMessages() != 1 || stats.TotalBytes() != 10 {
		t.Error("totals wrong")
	}
}
