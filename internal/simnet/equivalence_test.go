package simnet

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/topology"
)

// equivMachines returns the three network classes the model supports: the
// paper's GPC fat-tree, a uniform (nil-network) cluster, and a 3D torus.
func equivMachines(t testing.TB) map[string]*Machine {
	t.Helper()
	mk := func(nodes, sockets, cores int, net topology.Network) *Machine {
		c, err := topology.NewCluster(nodes, sockets, cores, net)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(c, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return map[string]*Machine{
		"fattree": mk(512, 2, 4, topology.GPCFatTree()),
		"uniform": mk(16, 2, 4, nil),
		"torus":   mk(64, 2, 4, topology.NewTorus3D(4, 4, 4)),
	}
}

// equivSchedules builds the allgather algorithm family at size p.
func equivSchedules(t testing.TB, p int) map[string]*sched.Schedule {
	t.Helper()
	gens := map[string]func(int) (*sched.Schedule, error){
		"ring":               sched.Ring,
		"recursive-doubling": sched.RecursiveDoubling,
		"bruck":              sched.Bruck,
		"rsag":               sched.ReduceScatterAllgather,
		"neighbor-exchange":  sched.NeighborExchange,
	}
	scheds := make(map[string]*sched.Schedule, len(gens))
	for name, gen := range gens {
		s, err := gen(p)
		if err != nil {
			t.Fatal(err)
		}
		scheds[name] = s
	}
	return scheds
}

// equivPrograms compiles the allgather algorithm family at size p.
func equivPrograms(t testing.TB, p int) map[string]*sched.Program {
	t.Helper()
	progs := make(map[string]*sched.Program)
	for name, s := range equivSchedules(t, p) {
		prog, err := sched.CompileCached(s)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = prog
	}
	return progs
}

// denseDurations is the dense reference accounting, the oracle the sparse
// production path (sparse.go) is pinned bit-identical against: it keeps the
// stage's loads in maps and routes every inter-node transfer twice, sharing
// no code with the sparse path, and performs the same arithmetic in the same
// order. It returns every transfer's duration in one stage execution.
func denseDurations(t testing.TB, m *Machine, transfers []sched.Transfer, layout []int, blockBytes int) []float64 {
	t.Helper()
	c, p := m.Cluster, &m.Params
	send, recv, socketMem := map[int]int{}, map[int]int{}, map[int]int{}
	netLinks := map[topology.DirLink]int{}
	qpi := map[[2]int]int{} // (node, sending local socket)
	localSocket := func(core int) int { return (core % c.CoresPerNode()) / c.CoresPerSocket }
	var route []topology.DirLink
	for _, tr := range transfers {
		src, dst := layout[tr.Src], layout[tr.Dst]
		send[src]++
		recv[dst]++
		srcNode, dstNode := c.NodeOf(src), c.NodeOf(dst)
		switch {
		case srcNode != dstNode:
			if c.Net == nil {
				continue
			}
			route = c.Net.RouteDir(route[:0], srcNode, dstNode)
			for _, dl := range route {
				netLinks[dl]++
			}
		case !c.SameSocket(src, dst):
			qpi[[2]int{srcNode, localSocket(src)}]++
			socketMem[c.SocketOf(src)]++
			socketMem[c.SocketOf(dst)]++
		default:
			socketMem[c.SocketOf(src)]++
		}
	}

	durations := make([]float64, len(transfers))
	for i, tr := range transfers {
		src, dst := layout[tr.Src], layout[tr.Dst]
		bytes := float64(tr.N) * float64(blockBytes)
		endpoint := send[src]
		if r := recv[dst]; r > endpoint {
			endpoint = r
		}
		srcNode, dstNode := c.NodeOf(src), c.NodeOf(dst)
		var alpha, streamBeta float64
		maxInv := 0.0
		bump := func(inv float64) {
			if inv > maxInv {
				maxInv = inv
			}
		}
		switch {
		case srcNode != dstNode:
			hops := 2
			if c.Net != nil {
				hops = c.Net.Hops(srcNode, dstNode)
			}
			alpha = p.AlphaNet + p.AlphaPerHop*float64(hops)
			streamBeta = 1 / p.StreamNet
			if c.Net != nil {
				route = c.Net.RouteDir(route[:0], srcNode, dstNode)
				for _, dl := range route {
					bump(float64(netLinks[dl]) / (p.CapNetPerCable * float64(c.Net.Multiplicity(dl.Link))))
				}
			}
		case !c.SameSocket(src, dst):
			alpha = p.AlphaQPI
			streamBeta = 1 / p.StreamQPI
			bump(float64(qpi[[2]int{srcNode, localSocket(src)}]) / p.CapQPIDir)
			bump(float64(socketMem[c.SocketOf(src)]) / p.CapSocketMem)
			bump(float64(socketMem[c.SocketOf(dst)]) / p.CapSocketMem)
		case src == dst:
			t.Fatalf("transfer between rank %d and %d lands on one core", tr.Src, tr.Dst)
		default:
			alpha = p.AlphaShm
			streamBeta = 1 / p.StreamShm
			bump(float64(socketMem[c.SocketOf(src)]) / p.CapSocketMem)
		}
		bump(streamBeta * float64(endpoint))
		durations[i] = alpha + bytes*maxInv
	}
	return durations
}

// denseStageTime is the barrier-model time of one stage execution: the
// worst transfer duration.
func denseStageTime(t testing.TB, m *Machine, transfers []sched.Transfer, layout []int, blockBytes int) float64 {
	t.Helper()
	worst := 0.0
	for _, d := range denseDurations(t, m, transfers, layout, blockBytes) {
		worst = max(worst, d)
	}
	return worst
}

// densePostCopy is the reference local shuffle epilogue.
func densePostCopy(m *Machine, blocks, blockBytes int) float64 {
	if blocks > 0 {
		return float64(blocks) * float64(blockBytes) / m.Params.MemCopy
	}
	return 0
}

// densePriceProgram mirrors PriceProgram on the dense accounting.
func densePriceProgram(t testing.TB, m *Machine, prog *sched.Program, layout []int, blockBytes int) float64 {
	t.Helper()
	if err := topology.ValidateLayout(m.Cluster, layout); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, st := range prog.Stages {
		total += denseStageTime(t, m, st.Transfers, layout, blockBytes) * float64(st.Repeat)
	}
	return total + densePostCopy(m, prog.PostCopyBlocks, blockBytes)
}

// densePricePipelined mirrors PricePipelined on the dense accounting,
// walking the schedule's own Pre and main stages rather than the compiled
// program: each rank starts a transfer once both endpoints are ready.
func densePricePipelined(t testing.TB, m *Machine, s *sched.Schedule, layout []int, blockBytes int) float64 {
	t.Helper()
	ready := make([]float64, s.P)
	var snapshot []float64
	for _, stages := range [][]sched.Stage{s.Pre, s.Stages} {
		for _, st := range stages {
			durations := denseDurations(t, m, st.Transfers, layout, blockBytes)
			for rep := 0; rep < max(st.Repeat, 1); rep++ {
				snapshot = append(snapshot[:0], ready...)
				for i, tr := range st.Transfers {
					comp := max(snapshot[tr.Src], snapshot[tr.Dst]) + durations[i]
					ready[tr.Src] = max(ready[tr.Src], comp)
					ready[tr.Dst] = max(ready[tr.Dst], comp)
				}
			}
		}
	}
	return slices.Max(ready) + densePostCopy(m, s.PostCopyBlocks, blockBytes)
}

// equivCase is one point of the equivalence grid.
type equivCase struct {
	machine    string // key into equivMachines
	m          *Machine
	s          *sched.Schedule
	prog       *sched.Program
	kind       topology.LayoutKind
	layout     []int
	blockBytes int
}

func (c equivCase) String() string {
	return fmt.Sprintf("%s/%s/%v/%dB", c.machine, c.prog.Name, c.kind, c.blockBytes)
}

// forEquivCase runs check over the equivalence grid: every network class,
// algorithm at up to maxP ranks, layout and block size. Each machine's
// scratch is reused across all its cases — exactly the pooled steady state
// pricing runs in — so stale-epoch aliasing between unrelated pricings would
// be caught.
func forEquivCase(t *testing.T, maxP int, check func(c equivCase)) {
	layouts := []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter, topology.CyclicBunch}
	for mname, m := range equivMachines(t) {
		p := min(m.Cluster.TotalCores()/2, maxP) // half occupancy exercises layout spread
		for _, s := range equivSchedules(t, p) {
			prog, err := sched.CompileCached(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range layouts {
				layout := topology.MustLayout(m.Cluster, p, kind)
				for _, blockBytes := range []int{64, 64 * 1024} {
					check(equivCase{mname, m, s, prog, kind, layout, blockBytes})
				}
			}
		}
	}
}

// TestSparseDensePriceEquivalence pins PriceProgram bit-identical (plain
// float equality, no tolerance) to the dense reference across the grid.
func TestSparseDensePriceEquivalence(t *testing.T) {
	forEquivCase(t, 512, func(c equivCase) {
		sparse, err := c.m.PriceProgram(c.prog, c.layout, c.blockBytes)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if dense := densePriceProgram(t, c.m, c.prog, c.layout, c.blockBytes); sparse != dense {
			t.Errorf("%v: sparse price %.17g differs from dense %.17g", c, sparse, dense)
		}
	})
}

// TestSparseDensePipelinedEquivalence pins PricePipelined, which walks the
// compiled program's stages, bit-identical to the dense reference walking
// the schedule's stages.
func TestSparseDensePipelinedEquivalence(t *testing.T) {
	forEquivCase(t, 512, func(c equivCase) {
		sparse, err := c.m.PricePipelined(c.s, c.layout, c.blockBytes)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if dense := densePricePipelined(t, c.m, c.s, c.layout, c.blockBytes); sparse != dense {
			t.Errorf("%v: sparse pipelined price %.17g differs from dense %.17g", c, sparse, dense)
		}
	})
}

// TestSparseDenseExplainEquivalence checks every stage of the breakdown
// against the dense stage prices across the grid.
func TestSparseDenseExplainEquivalence(t *testing.T) {
	forEquivCase(t, 512, func(c equivCase) {
		bd, err := c.m.ExplainProgram(c.prog, c.layout, c.blockBytes)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if len(bd.Stages) != len(c.prog.Stages) {
			t.Fatalf("%v: breakdown covers %d stages, program has %d", c, len(bd.Stages), len(c.prog.Stages))
		}
		for i, st := range bd.Stages {
			if want := denseStageTime(t, c.m, c.prog.Stages[i].Transfers, c.layout, c.blockBytes); st.Seconds != want {
				t.Errorf("%v: stage %d: sparse %.17g differs from dense %.17g", c, i, st.Seconds, want)
			}
		}
	})
}

// TestConcurrentPricing prices a 64-rank grid from one goroutine per case on
// one Machine per network class — the way mapd's workers share a machine
// and its pooled scratch — through every entry point, and requires each
// result == a serial run on separate machines.
func TestConcurrentPricing(t *testing.T) {
	priceAll := func(m *Machine, c equivCase) [4]float64 {
		pp, err := m.Profile(c.prog, c.layout)
		if err != nil {
			t.Errorf("%v: %v", c, err)
			return [4]float64{}
		}
		prof, err1 := pp.Price(c.blockBytes)
		price, err2 := m.PriceProgram(c.prog, c.layout, c.blockBytes)
		bd, err3 := m.ExplainProgram(c.prog, c.layout, c.blockBytes)
		pipe, err4 := m.PricePipelined(c.s, c.layout, c.blockBytes)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Errorf("%v: %v", c, err)
			return [4]float64{}
		}
		return [4]float64{price, prof, bd.Total, pipe}
	}
	var cases []equivCase
	var want [][4]float64
	forEquivCase(t, 64, func(c equivCase) {
		cases = append(cases, c)
		want = append(want, priceAll(c.m, c))
	})
	shared := equivMachines(t)
	got := make([][4]float64, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = priceAll(shared[c.machine], c)
		}()
	}
	wg.Wait()
	for i, c := range cases {
		if got[i] != want[i] {
			t.Errorf("%v: concurrent prices %v differ from serial %v", c, got[i], want[i])
		}
	}
}

// TestPriceProgramRingP65536 is the scale acceptance bound: pricing a
// 65536-rank ring on an 8192-node fat-tree must finish well inside a second.
// Before the sparse rewrite this burned per-stage map churn and two route
// computations per inter-node transfer.
func TestPriceProgramRingP65536(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second setup at p=65536")
	}
	const p = 65536
	c, err := topology.NewCluster(8192, 2, 4, topology.TwoLevelFatTree(512, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(c, p, topology.BlockBunch)
	// Warm run populates the route cache; the timed run is the steady state
	// the heuristics see.
	first, err := m.PriceProgram(prog, layout, 4096)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	warm, err := m.PriceProgram(prog, layout, 4096)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if warm != first {
		t.Errorf("warm price %.17g differs from cold %.17g", warm, first)
	}
	if warm <= 0 {
		t.Errorf("price = %g", warm)
	}
	if elapsed > time.Second {
		t.Errorf("PriceProgram(ring p=65536) took %v, want < 1s", elapsed)
	}
}

// TestPriceStageAllocs extends the AllocsPerRun discipline to the pricing
// hot path: a whole warm PriceProgram call — layout validation and every
// stage of the pass — allocates nothing.
func TestPriceStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on map operations")
	}
	m := gpcMachine(t)
	const p, blockBytes = 512, 4096
	layout := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)
	for _, prog := range equivPrograms(t, p) {
		price := func() {
			if _, err := m.PriceProgram(prog, layout, blockBytes); err != nil {
				t.Fatal(err)
			}
		}
		price() // warm the pool and the route and link-id caches
		if avg := testing.AllocsPerRun(20, price); avg > 0 {
			t.Errorf("warm PriceProgram(%s) allocates %.2f times per call, want 0", prog.Name, avg)
		}
	}
}

// BenchmarkPriceProgram is the scaling benchmark behind BENCH_simnet.json:
// a full ring pricing at three process counts, allocs reported. The p=65536
// machine matches the acceptance test above.
func BenchmarkPriceProgram(b *testing.B) {
	cases := []struct {
		p      int
		leaves int
		uplink int
	}{
		{1024, 8, 2},
		{8192, 64, 2},
		{65536, 512, 3},
	}
	for _, tc := range cases {
		c, err := topology.NewCluster(tc.p/8, 2, 4, topology.TwoLevelFatTree(tc.leaves, 16, tc.uplink))
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMachine(c, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		s, err := sched.Ring(tc.p)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := sched.CompileCached(s)
		if err != nil {
			b.Fatal(err)
		}
		layout := topology.MustLayout(c, tc.p, topology.BlockBunch)
		b.Run(fmt.Sprintf("ring/p%d", tc.p), func(b *testing.B) {
			if _, err := m.PriceProgram(prog, layout, 4096); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.PriceProgram(prog, layout, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
