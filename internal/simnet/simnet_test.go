package simnet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

func testMachine(t testing.TB) *Machine {
	t.Helper()
	c, err := topology.NewCluster(8, 2, 4, topology.TwoLevelFatTree(2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func gpcMachine(t testing.TB) *Machine {
	t.Helper()
	m, err := NewMachine(topology.GPC(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// price is a helper pricing one two-rank schedule between two cores.
func pairTime(t *testing.T, m *Machine, coreA, coreB int, bytes int) float64 {
	t.Helper()
	s := &sched.Schedule{Name: "pair", P: 2, Stages: []sched.Stage{{
		Transfers: []sched.Transfer{{Src: 0, Dst: 1, N: 1, Mode: sched.All}},
	}}}
	v, err := m.Price(s, []int{coreA, coreB}, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestChannelOrdering(t *testing.T) {
	m := gpcMachine(t)
	const bytes = 64 * 1024
	shm := pairTime(t, m, 0, 1, bytes)      // same socket
	qpi := pairTime(t, m, 0, 4, bytes)      // cross socket
	sameLeaf := pairTime(t, m, 0, 8, bytes) // neighbour node
	crossTree := pairTime(t, m, 0, 4088, bytes)
	if !(shm < qpi && qpi < sameLeaf && sameLeaf < crossTree) {
		t.Errorf("channel ordering violated: shm=%g qpi=%g leaf=%g tree=%g", shm, qpi, sameLeaf, crossTree)
	}
}

func TestPriceMonotoneInSize(t *testing.T) {
	m := gpcMachine(t)
	s, err := sched.RecursiveDoubling(64)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, 64, topology.BlockBunch)
	prev := 0.0
	for _, bytes := range []int{4, 64, 1024, 16384, 262144} {
		v, err := m.Price(s, layout, bytes)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Errorf("price not increasing at %dB: %g <= %g", bytes, v, prev)
		}
		prev = v
	}
}

func TestRingLayoutOrdering(t *testing.T) {
	// Large-message ring: block-bunch (ideal) < block-scatter (QPI
	// crossings) < cyclic (every hop inter-node with HCA contention) —
	// the Fig. 3 premise.
	m := gpcMachine(t)
	p := 4096
	s, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 64 * 1024
	price := func(k topology.LayoutKind) float64 {
		v, err := m.Price(s, topology.MustLayout(m.Cluster, p, k), bytes)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	bunch := price(topology.BlockBunch)
	scatter := price(topology.BlockScatter)
	cyclic := price(topology.CyclicBunch)
	if !(bunch < scatter && scatter < cyclic) {
		t.Errorf("ring layout ordering violated: bunch=%g scatter=%g cyclic=%g", bunch, scatter, cyclic)
	}
	// The cyclic penalty is severe (the paper reports ~78% improvement
	// after repair, i.e. cyclic is several times slower than ideal).
	if cyclic < 2*bunch {
		t.Errorf("cyclic ring should be far slower than block-bunch: %g vs %g", cyclic, bunch)
	}
}

func TestRecursiveDoublingCyclicBeatsBlock(t *testing.T) {
	// Section VI-A1: "an initial cyclic (scatter) mapping is better than
	// block (bunch) for the recursive doubling algorithm" — because the
	// heavy late stages become intra-node.
	m := gpcMachine(t)
	p := 4096
	s, err := sched.RecursiveDoubling(p)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 512
	block, err := m.Price(s, topology.MustLayout(m.Cluster, p, topology.BlockBunch), bytes)
	if err != nil {
		t.Fatal(err)
	}
	cyclic, err := m.Price(s, topology.MustLayout(m.Cluster, p, topology.CyclicBunch), bytes)
	if err != nil {
		t.Fatal(err)
	}
	if cyclic >= block {
		t.Errorf("cyclic should beat block for recursive doubling: cyclic=%g block=%g", cyclic, block)
	}
}

func TestRMHRepairsCyclicRing(t *testing.T) {
	// After RMH, a cyclic initial layout must price close to the ideal
	// block-bunch layout (goal 1) and block-bunch must stay unchanged
	// (goal 2).
	m := gpcMachine(t)
	p := 512
	s, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 64 * 1024

	ideal := topology.MustLayout(m.Cluster, p, topology.BlockBunch)
	idealTime, err := m.Price(s, ideal, bytes)
	if err != nil {
		t.Fatal(err)
	}

	cyc := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)
	d, err := topology.NewDistances(m.Cluster, cyc)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := core.RMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := mp.Apply(cyc)
	if err != nil {
		t.Fatal(err)
	}
	repairedTime, err := m.Price(s, repaired, bytes)
	if err != nil {
		t.Fatal(err)
	}
	cyclicTime, err := m.Price(s, cyc, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if repairedTime > cyclicTime {
		t.Errorf("RMH degraded the cyclic ring: %g -> %g", cyclicTime, repairedTime)
	}
	if repairedTime > idealTime*1.5 {
		t.Errorf("RMH repair should approach the ideal: repaired=%g ideal=%g", repairedTime, idealTime)
	}
}

func TestLinearGatherRootSerialises(t *testing.T) {
	// The fan-in at the linear gather root must cost more than a lone
	// transfer of the same size.
	m := testMachine(t)
	p := 8
	lin, err := sched.LinearGather(p)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, p, topology.BlockBunch)
	const bytes = 256 * 1024
	linTime, err := m.Price(lin, layout, bytes)
	if err != nil {
		t.Fatal(err)
	}
	solo := pairTime(t, m, layout[0], layout[1], bytes)
	if linTime < 3*solo {
		t.Errorf("linear gather fan-in underpriced: %g vs solo %g", linTime, solo)
	}
}

func TestPostCopyPriced(t *testing.T) {
	m := testMachine(t)
	s, err := sched.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, 8, topology.BlockBunch)
	base, err := m.Price(s, layout, 1024)
	if err != nil {
		t.Fatal(err)
	}
	s2 := *s
	s2.PostCopyBlocks = 8
	shuffled, err := m.Price(&s2, layout, 1024)
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := 8 * 1024 / m.Params.MemCopy
	if got := shuffled - base; got < wantExtra*0.99 || got > wantExtra*1.01 {
		t.Errorf("post-copy priced at %g, want %g", got, wantExtra)
	}
}

func TestPrePhasesPriced(t *testing.T) {
	m := testMachine(t)
	s, err := sched.RecursiveDoubling(8)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, 8, topology.BlockBunch)
	base, err := m.Price(s, layout, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rev := make(core.Mapping, 8)
	for i := range rev {
		rev[i] = i
	}
	rev[1], rev[2] = 2, 1
	withPre, err := sched.WithOrderPreservation(s, rev, sched.InitComm)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := m.Price(withPre, layout, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if pre <= base {
		t.Errorf("initComm prologue not priced: %g <= %g", pre, base)
	}
}

func TestPriceErrors(t *testing.T) {
	m := testMachine(t)
	s, _ := sched.Ring(8)
	layout := topology.MustLayout(m.Cluster, 8, topology.BlockBunch)
	if _, err := m.Price(s, layout[:4], 1024); err == nil {
		t.Error("short layout accepted")
	}
	if _, err := m.Price(s, layout, 0); err == nil {
		t.Error("zero block size accepted")
	}
	bad := append([]int{}, layout...)
	bad[3] = bad[2]
	if _, err := m.Price(s, bad, 1024); err == nil {
		t.Error("duplicate-core layout accepted")
	}
	s.Stages[0].Transfers[0].N = -1
	if _, err := m.Price(s, layout, 1024); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestNewMachineErrors(t *testing.T) {
	if _, err := NewMachine(nil, DefaultParams()); err == nil {
		t.Error("nil cluster accepted")
	}
	p := DefaultParams()
	p.StreamNet = 0
	if _, err := NewMachine(topology.SingleNode(2, 4), p); err == nil {
		t.Error("zero bandwidth accepted")
	}
	p2 := DefaultParams()
	p2.AlphaPerHop = -1
	if _, err := NewMachine(topology.SingleNode(2, 4), p2); err == nil {
		t.Error("negative per-hop latency accepted")
	}
}

func TestNoNetClusterPrices(t *testing.T) {
	c, err := topology.NewCluster(4, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Price(s, topology.MustLayout(c, 16, topology.BlockBunch), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("price = %g", v)
	}
}

func TestHierarchicalCheaperThanFlatForSmall(t *testing.T) {
	// The hierarchical approach restricts inter-node traffic to leaders,
	// so for small messages it must beat the flat ring on a block layout.
	m := gpcMachine(t)
	p := 4096
	layout := topology.MustLayout(m.Cluster, p, topology.BlockBunch)
	groups := sched.Groups(layout, m.Cluster.NodeOf)
	hier, err := sched.Hierarchical(groups, nil, sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 16
	hierTime, err := m.Price(hier, layout, bytes)
	if err != nil {
		t.Fatal(err)
	}
	flatTime, err := m.Price(flat, layout, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if hierTime >= flatTime {
		t.Errorf("hierarchical not cheaper for small messages: %g vs %g", hierTime, flatTime)
	}
}

func BenchmarkPriceRD4096(b *testing.B) {
	m, err := NewMachine(topology.GPC(), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.RecursiveDoubling(4096)
	if err != nil {
		b.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, 4096, topology.BlockBunch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Price(s, layout, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
