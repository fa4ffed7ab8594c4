package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md section 3 for the experiment index) and the
// ablation studies of the design choices. Most figure benchmarks run the
// full 4096-process configuration once per iteration; use
//
//	go test -bench=. -benchtime=1x
//
// for a complete single pass. Key reproduced quantities are attached to the
// benchmark output as custom metrics (improvement percentages, overhead
// milliseconds), so `go test -bench` output doubles as the measured side of
// EXPERIMENTS.md.

import (
	"testing"

	"repro/internal/app"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hwdisc"
	"repro/internal/osu"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// benchSetup builds the full-scale paper environment.
func benchSetup(b *testing.B, p int) *experiments.Setup {
	b.Helper()
	s, err := experiments.NewSetup(p, osu.DefaultSizes())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// findPoint extracts a series point for reporting.
func findPoint(pts []experiments.Point, bytes int) float64 {
	for _, pt := range pts {
		if pt.Bytes == bytes {
			return pt.Improvement
		}
	}
	return 0
}

// BenchmarkFig1PatternConstruction regenerates the paper's Fig. 1 artefact:
// the recursive doubling communication pattern (8 processes in the figure;
// built here at 4096 as the evaluation uses it).
func BenchmarkFig1PatternConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := sched.RecursiveDoubling(4096)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Stages) != 12 {
			b.Fatalf("stages = %d", len(s.Stages))
		}
	}
}

// BenchmarkFig2TopologyConstruction builds the paper's Fig. 2 system model:
// the GPC fat-tree plus the full 4096-core distance matrix.
func BenchmarkFig2TopologyConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := topology.GPC()
		layout := topology.MustLayout(c, 4096, topology.BlockBunch)
		d, err := topology.NewDistances(c, layout)
		if err != nil {
			b.Fatal(err)
		}
		if d.N() != 4096 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkFig3NonHierarchical regenerates paper Fig. 3 (all four panels).
func BenchmarkFig3NonHierarchical(b *testing.B) {
	s := benchSetup(b, 4096)
	var panels []experiments.Panel
	var err error
	for i := 0; i < b.N; i++ {
		panels, err = experiments.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range panels {
		hs := p.Series["Hrstc+initComm"]
		b.ReportMetric(findPoint(hs, 1024), p.Layout.String()+"_1K_%")
		b.ReportMetric(findPoint(hs, 256*1024), p.Layout.String()+"_256K_%")
	}
}

// BenchmarkFig4Hierarchical regenerates paper Fig. 4 (all four panels).
func BenchmarkFig4Hierarchical(b *testing.B) {
	s := benchSetup(b, 4096)
	var panels []experiments.Fig4Panel
	var err error
	for i := 0; i < b.N; i++ {
		panels, err = experiments.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range panels {
		for name, pts := range p.Series {
			if name == "Hrstc-NL+initComm" || name == "Hrstc-L+initComm" {
				b.ReportMetric(findPoint(pts, 1024), p.Layout.String()+"_"+p.Intra.String()+"_1K_%")
			}
		}
	}
}

// BenchmarkFig5AppNonHierarchical regenerates the paper's Fig. 5 application
// study (1024 processes, 358 allgather calls).
func BenchmarkFig5AppNonHierarchical(b *testing.B) {
	cfg := app.DefaultConfig()
	s := benchSetup(b, cfg.Procs)
	var panels []experiments.Fig5Panel
	var err error
	for i := 0; i < b.N; i++ {
		panels, err = experiments.Fig5(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range panels {
		for _, r := range p.Results {
			if r.Variant == "Hrstc" {
				b.ReportMetric(r.Normalized, p.Layout.String()+"_norm")
			}
		}
	}
}

// BenchmarkFig6AppHierarchical regenerates the paper's Fig. 6.
func BenchmarkFig6AppHierarchical(b *testing.B) {
	cfg := app.DefaultConfig()
	s := benchSetup(b, cfg.Procs)
	var panels []experiments.Fig6Panel
	var err error
	for i := 0; i < b.N; i++ {
		panels, err = experiments.Fig6(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range panels {
		for _, r := range p.Results {
			b.ReportMetric(r.Normalized, p.Layout.String()+"_"+r.Variant+"_norm")
		}
	}
}

// BenchmarkFig7aDistanceExtraction regenerates the one-time discovery
// overhead of paper Fig. 7(a).
func BenchmarkFig7aDistanceExtraction(b *testing.B) {
	c := topology.GPC()
	cm := hwdisc.DefaultCostModel()
	for _, p := range experiments.Fig7Procs {
		layout := topology.MustLayout(c, p, topology.BlockBunch)
		var res *hwdisc.Result
		var err error
		b.Run(itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err = hwdisc.Discover(c, layout, cm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Elapsed.Seconds(), "modeled_s")
		})
	}
}

// BenchmarkFig7bMappingOverhead measures the actual wall clock of the
// heuristic vs the Scotch baseline — the comparison of paper Fig. 7(b).
func BenchmarkFig7bMappingOverhead(b *testing.B) {
	c := topology.GPC()
	for _, p := range experiments.Fig7Procs {
		layout := topology.MustLayout(c, p, topology.CyclicBunch)
		d, err := topology.NewDistances(c, layout)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Heuristic/"+itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RDMH(d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Scotch/"+itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := patterns.Build(core.RecursiveDoubling, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := scotch.Map(g, d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md §4) ---

// ablationEnv builds the pricing environment shared by the ablations.
func ablationEnv(b *testing.B, p int, kind topology.LayoutKind) (*simnet.Machine, []int, *topology.Distances) {
	b.Helper()
	c := topology.GPC()
	m, err := simnet.NewMachine(c, simnet.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	layout := topology.MustLayout(c, p, kind)
	d, err := topology.NewDistances(c, layout)
	if err != nil {
		b.Fatal(err)
	}
	return m, layout, d
}

// BenchmarkAblationRDMHRefUpdate compares reference-core update cadences for
// RDMH (the paper advances after two placements). The metric is modelled
// recursive-doubling latency (ms) at 1 KB under a block-bunch start.
func BenchmarkAblationRDMHRefUpdate(b *testing.B) {
	const p = 4096
	machine, layout, d := ablationEnv(b, p, topology.BlockBunch)
	s, err := sched.RecursiveDoubling(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, cadence := range []int{1, 2, 4, -1} {
		name := "every" + itoa(cadence)
		if cadence < 0 {
			name = "never"
		}
		b.Run(name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				m, err := core.RDMH(d, &core.Options{RDMHRefUpdate: cadence})
				if err != nil {
					b.Fatal(err)
				}
				eff, err := m.Apply(layout)
				if err != nil {
					b.Fatal(err)
				}
				lat, err = machine.Price(s, eff, 1024)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lat*1e3, "rd_1K_ms")
		})
	}
}

// BenchmarkAblationBBMHTraversal compares the binomial-broadcast traversal
// orders (paper picks smaller-subtree-first). Metric: modelled intra-node
// broadcast latency (us) on one node with a scattered layout.
func BenchmarkAblationBBMHTraversal(b *testing.B) {
	node := topology.SingleNode(2, 4)
	machine, err := simnet.NewMachine(node, simnet.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	layout := topology.MustLayout(node, 8, topology.BlockScatter)
	d, err := topology.NewDistances(node, layout)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.BinomialBroadcast(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range []core.Traversal{core.SmallerSubtreeFirst, core.LargerSubtreeFirst, core.BreadthFirst} {
		b.Run(tr.String(), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				m, err := core.BBMHWithTraversal(d, nil, tr)
				if err != nil {
					b.Fatal(err)
				}
				eff, err := m.Apply(layout)
				if err != nil {
					b.Fatal(err)
				}
				lat, err = machine.Price(s, eff, 8192)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lat*1e6, "bcast_us")
		})
	}
}

// BenchmarkAblationOrderPreservation compares initComm vs endShfl costs
// across message sizes under the cyclic recursive-doubling repair — the
// crossover the paper discusses in Section VI-A1.
func BenchmarkAblationOrderPreservation(b *testing.B) {
	const p = 4096
	machine, layout, d := ablationEnv(b, p, topology.CyclicBunch)
	s, err := sched.RecursiveDoubling(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.RDMH(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	eff, err := m.Apply(layout)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []sched.OrderMode{sched.InitComm, sched.EndShuffle} {
		for _, size := range []int{64, 1024} {
			b.Run(mode.String()+"/"+itoa(size), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					ws, err := sched.WithOrderPreservation(s, m, mode)
					if err != nil {
						b.Fatal(err)
					}
					lat, err = machine.Price(ws, eff, size)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(lat*1e6, "lat_us")
			})
		}
	}
}

// BenchmarkExtensionBruck evaluates the paper's future-work item: the Bruck
// allgather (any process count, which recursive doubling cannot serve)
// repaired by the dedicated BKMH heuristic, compared against borrowing the
// ring heuristic.
func BenchmarkExtensionBruck(b *testing.B) {
	const p = 3072 // non-power-of-two: 384 nodes
	machine, layout, d := ablationEnv(b, p, topology.CyclicBunch)
	s, err := sched.Bruck(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []struct {
		name string
		fn   core.Heuristic
	}{{"BKMH", core.BKMH}, {"RMH", core.RMH}} {
		b.Run(h.name, func(b *testing.B) {
			m, err := h.fn(d, nil)
			if err != nil {
				b.Fatal(err)
			}
			eff, err := m.Apply(layout)
			if err != nil {
				b.Fatal(err)
			}
			var def, re float64
			for i := 0; i < b.N; i++ {
				def, err = machine.Price(s, layout, 512)
				if err != nil {
					b.Fatal(err)
				}
				ws, err := sched.WithOrderPreservation(s, m, sched.InitComm)
				if err != nil {
					b.Fatal(err)
				}
				re, err = machine.Price(ws, eff, 512)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(osu.Improvement(def, re), "improvement_%")
		})
	}
}

// BenchmarkExtensionAllreduce evaluates the future-work hierarchical
// allreduce path: the flat binomial reduce+broadcast schedule priced under
// default vs BGMH/BBMH-style reordering at node scale.
func BenchmarkExtensionAllreduce(b *testing.B) {
	node := topology.SingleNode(2, 4)
	machine, err := simnet.NewMachine(node, simnet.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	layout := topology.MustLayout(node, 8, topology.BlockScatter)
	d, err := topology.NewDistances(node, layout)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.BinomialReduceBroadcast(8)
	if err != nil {
		b.Fatal(err)
	}
	// Allreduce messages have uniform size across stages, so the
	// broadcast heuristic (fixed-size rationale) is the right one.
	m, err := core.BBMH(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	eff, err := m.Apply(layout)
	if err != nil {
		b.Fatal(err)
	}
	var def, re float64
	for i := 0; i < b.N; i++ {
		def, err = machine.Price(s, layout, 65536)
		if err != nil {
			b.Fatal(err)
		}
		re, err = machine.Price(s, eff, 65536)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(osu.Improvement(def, re), "improvement_%")
}

// BenchmarkAblationBarrierModel compares the stage-barrier cost model
// (Price) with the pipelined model (PricePipelined) on the headline Fig. 3
// configuration. The reordering improvement must survive the model swap —
// evidence that the reproduced effects are not artefacts of the barrier
// assumption.
func BenchmarkAblationBarrierModel(b *testing.B) {
	const p = 1024
	machine, layout, d := ablationEnv(b, p, topology.CyclicBunch)
	s, err := sched.Ring(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.RMH(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	eff, err := m.Apply(layout)
	if err != nil {
		b.Fatal(err)
	}
	const bytes = 65536
	for _, model := range []struct {
		name  string
		price func(s *sched.Schedule, layout []int, bytes int) (float64, error)
	}{
		{"barrier", machine.Price},
		{"pipelined", machine.PricePipelined},
	} {
		b.Run(model.name, func(b *testing.B) {
			var def, re float64
			for i := 0; i < b.N; i++ {
				if def, err = model.price(s, layout, bytes); err != nil {
					b.Fatal(err)
				}
				if re, err = model.price(s, eff, bytes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(osu.Improvement(def, re), "improvement_%")
		})
	}
}

// BenchmarkExtensionTorus prices the cyclic-ring repair on a torus cluster
// of the paper's scale — the heuristics consume only distances, so they
// carry across interconnects.
func BenchmarkExtensionTorus(b *testing.B) {
	cluster, err := topology.NewCluster(512, 2, 4, topology.NewTorus3D(8, 8, 8))
	if err != nil {
		b.Fatal(err)
	}
	machine, err := simnet.NewMachine(cluster, simnet.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	layout := topology.MustLayout(cluster, 4096, topology.CyclicBunch)
	d, err := topology.NewDistances(cluster, layout)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.Ring(4096)
	if err != nil {
		b.Fatal(err)
	}
	var def, re float64
	for i := 0; i < b.N; i++ {
		m, err := core.RMH(d, nil)
		if err != nil {
			b.Fatal(err)
		}
		eff, err := m.Apply(layout)
		if err != nil {
			b.Fatal(err)
		}
		if def, err = machine.Price(s, layout, 65536); err != nil {
			b.Fatal(err)
		}
		if re, err = machine.Price(s, eff, 65536); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(osu.Improvement(def, re), "improvement_%")
}

// BenchmarkExtensionRabenseifner prices Rabenseifner's large-message
// allreduce (reduce-scatter + allgather over the recursive-doubling
// pattern) under the default vs the RDMH-repaired cyclic layout — extending
// the paper's framework to MPI_Allreduce as its future work proposes.
func BenchmarkExtensionRabenseifner(b *testing.B) {
	const p = 4096
	machine, layout, d := ablationEnv(b, p, topology.CyclicBunch)
	s, err := sched.ReduceScatterAllgather(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.RDMH(d, nil)
	if err != nil {
		b.Fatal(err)
	}
	eff, err := m.Apply(layout)
	if err != nil {
		b.Fatal(err)
	}
	var def, re float64
	for i := 0; i < b.N; i++ {
		// Chunk bytes for a 4 MiB vector: 1 KiB per chunk at 4096 ranks.
		if def, err = machine.Price(s, layout, 1024); err != nil {
			b.Fatal(err)
		}
		if re, err = machine.Price(s, eff, 1024); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(osu.Improvement(def, re), "improvement_%")
}

// BenchmarkRuntimeAllgather measures the real goroutine runtime at laptop
// scale across the three flat algorithms — the executable counterpart of
// the micro-benchmark protocol.
func BenchmarkRuntimeAllgather(b *testing.B) {
	for _, alg := range []collective.Algorithm{collective.AlgRecursiveDoubling, collective.AlgRing, collective.AlgBruck} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := osu.MeasureRuntime(32, 1024, alg, 1, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// itoa avoids strconv in this file's hot paths.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	s := string(buf[i:])
	if neg {
		s = "-" + s
	}
	return s
}
