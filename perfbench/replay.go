package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// layerSums accumulates the request path's per-layer times over replayed
// requests. Each field is the summed wall time of the public calls the
// service makes for a request, made here from the benchmark on the same
// inputs; counts give the per-call means.
type layerSums struct {
	requests                              int
	cluster, fingerprint, oracle          time.Duration
	dense                                 int
	heur                                  map[string]time.Duration
	heurN                                 map[string]int
	scotch, graphBuild                    time.Duration
	scotchN, graphN                       int
	machine                               time.Duration
	machineN                              int
	build, orderFix, schedFP, compile     time.Duration
	buildN, orderFixN, schedFPN, compileN int
	compileAlloc                          uint64
	profile, price                        time.Duration
	profileN, priceN                      int
	computedN                             int           // requests reconciled
	reconciled                            time.Duration // parts the service's Compute also pays
	reconciledCompute                     time.Duration // Service.Compute on the same requests
	// overhead[0] holds traced-minus-untraced replay times of requests whose
	// traced replay ran first, overhead[1] of those whose untraced one did.
	overhead    [2][]time.Duration
	replaySpans int // spans the traced replays recorded
}

func newLayerSums() *layerSums {
	return &layerSums{heur: map[string]time.Duration{}, heurN: map[string]int{}}
}

// oracleHeuristics are the cancellable oracle forms the service runs.
var oracleHeuristics = map[string]core.OracleHeuristic{
	"rdmh": core.RDMHOracle, "rmh": core.RMHOracle, "bbmh": core.BBMHOracle,
	"bgmh": core.BGMHOracle, "bkmh": core.BKMHOracle,
}

// clusterOf materialises a topology spec through the topology package's
// public constructors.
func clusterOf(spec *service.TopologySpec) (*topology.Cluster, error) {
	if spec.Preset == "gpc" {
		return topology.GPC(), nil
	}
	var net topology.Network
	if n := spec.Network; n != nil {
		switch n.Kind {
		case "fattree":
			net = topology.TwoLevelFatTree(n.Leaves, n.NodesPerLeaf, n.Uplinks)
		case "torus":
			net = topology.NewTorus3D(n.X, n.Y, n.Z)
		}
	}
	return topology.NewCluster(spec.Nodes, spec.SocketsPerNode, spec.CoresPerSocket, net)
}

// graphOf builds a CSR spec the way a request's graph is materialised.
func graphOf(spec *service.GraphSpec) (*graph.Graph, error) {
	g := graph.New(spec.N)
	for u := 0; u < spec.N; u++ {
		for e := spec.XAdj[u]; e < spec.XAdj[u+1]; e++ {
			if v := spec.Adjncy[e]; v > u {
				if err := g.AddEdge(u, v, spec.Weights[e]); err != nil {
					return nil, err
				}
			}
		}
	}
	g.Fingerprint()
	return g, nil
}

// scheduleFor resolves the schedule a request prices: the pattern's
// registry builder, or the family's torus-native builder when the cluster
// fingerprints as a torus covering every rank.
func scheduleFor(cluster *topology.Cluster, pat core.Pattern, p int) (*sched.Schedule, error) {
	if spec, ok := sched.PatternFor(pat); ok && spec.FamilyDefault {
		if dims, torus := topology.TorusRankDims(cluster, p); torus {
			if fam, err := spec.Family.Desc(); err == nil && fam.TorusBuilder != nil {
				return fam.TorusBuilder(dims)
			}
		}
	}
	return sched.ForPattern(pat, p)
}

// replay makes, from the benchmark, the public layer calls that serving req
// costs, timing each inside a span under parent. It returns the summed time
// of the parts a cold Service.Compute also pays (the cluster fingerprint is
// memoised process-wide by the service, so it is timed but not summed).
func (ls *layerSums) replay(req *service.Request, tr *tracer, parent, id int64) (time.Duration, error) {
	ctx := context.Background()
	var sum time.Duration
	span := func(name string, fn func() error) (time.Duration, error) {
		var err error
		d := tr.timed(name, parent, id, func() { err = fn() })
		return d, err
	}
	ls.requests++

	var cluster *topology.Cluster
	var layout []int
	d, err := span("topology.cluster", func() error {
		var err error
		if cluster, err = clusterOf(&req.Topology); err != nil {
			return err
		}
		kind, err := topology.ParseLayoutKind(req.Layout)
		if err != nil {
			return err
		}
		layout, err = topology.Layout(cluster, req.Procs, kind)
		return err
	})
	if err != nil {
		return 0, err
	}
	ls.cluster += d
	sum += d
	d, _ = span("topology.fingerprint", func() error { cluster.Fingerprint(); return nil })
	ls.fingerprint += d

	var oracle topology.Oracle
	d, err = span("topology.oracle", func() error {
		if h, herr := topology.NewHierarchy(cluster, layout); herr == nil {
			oracle = h
			return nil
		}
		ls.dense++
		dense, err := topology.NewDistances(cluster, layout)
		oracle = dense
		return err
	})
	if err != nil {
		return 0, err
	}
	ls.oracle += d
	sum += d

	var g *graph.Graph
	var pat core.Pattern
	if req.Pattern.Graph != nil {
		d, err = span("graph.build", func() error {
			var err error
			g, err = graphOf(req.Pattern.Graph)
			return err
		})
		if err != nil {
			return 0, err
		}
		ls.graphBuild += d
		ls.graphN++
		sum += d
	} else if pat, err = core.ParsePattern(req.Pattern.Name); err != nil {
		return 0, err
	}

	var names []string
	switch req.Heuristic {
	case "auto":
		names = []string{"rdmh", "rmh", "bbmh", "bgmh"}
		if g != nil {
			names = append(names, "scotch")
		}
	default:
		names = []string{req.Heuristic}
	}
	var mappings []core.Mapping
	for _, name := range names {
		var m core.Mapping
		if h := oracleHeuristics[name]; h != nil {
			d, err = span("core."+name, func() error {
				var err error
				m, err = h(ctx, oracle, nil)
				return err
			})
			ls.heur[name] += d
			ls.heurN[name]++
		} else {
			d, err = span("scotch.map", func() error {
				guest := g
				if guest == nil {
					var err error
					if guest, err = patterns.Build(pat, req.Procs); err != nil {
						return err
					}
				}
				var err error
				m, err = scotch.MapContext(ctx, guest, oracle, nil)
				return err
			})
			ls.scotch += d
			ls.scotchN++
		}
		if err != nil {
			return 0, err
		}
		sum += d
		mappings = append(mappings, m)
	}
	if g != nil {
		return sum, nil
	}

	var machine *simnet.Machine
	d, err = span("simnet.machine", func() error {
		var err error
		machine, err = simnet.NewMachine(cluster, simnet.DefaultParams())
		return err
	})
	if err != nil {
		return 0, err
	}
	ls.machine += d
	ls.machineN++
	sum += d

	mode := sched.NoOrderFix
	if spec, ok := sched.PatternFor(pat); ok && spec.OrderSensitive {
		mode = sched.InitComm
	}
	// program builds, fingerprints, compiles (uncached, so the compile is
	// cold) and profiles one schedule over a layout.
	program := func(fix func(*sched.Schedule) (*sched.Schedule, error), lay func() ([]int, error)) (*simnet.PriceProfile, error) {
		var s *sched.Schedule
		d, err := span("sched.build", func() error {
			var err error
			s, err = scheduleFor(cluster, pat, req.Procs)
			return err
		})
		if err != nil {
			return nil, err
		}
		ls.build += d
		ls.buildN++
		sum += d
		eff := layout
		if fix != nil {
			d, err = span("sched.order_fix", func() error {
				var err error
				if eff, err = lay(); err != nil {
					return err
				}
				s, err = fix(s)
				return err
			})
			if err != nil {
				return nil, err
			}
			ls.orderFix += d
			ls.orderFixN++
			sum += d
		}
		d, _ = span("sched.fingerprint", func() error { sched.Fingerprint(s); return nil })
		ls.schedFP += d
		ls.schedFPN++
		sum += d
		var prog *sched.Program
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err = span("sched.compile", func() error {
			var err error
			prog, err = sched.Compile(s)
			return err
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		ls.compile += d
		ls.compileN++
		ls.compileAlloc += after.TotalAlloc - before.TotalAlloc
		sum += d
		var pp *simnet.PriceProfile
		d, err = span("simnet.profile", func() error {
			var err error
			pp, err = machine.Profile(prog, eff)
			return err
		})
		if err != nil {
			return nil, err
		}
		ls.profile += d
		ls.profileN++
		sum += d
		return pp, nil
	}
	base, err := program(nil, nil)
	if err != nil {
		return 0, err
	}
	seen := map[uint64]bool{}
	for _, m := range mappings {
		fp := mappingKey(m)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		reord, err := program(
			func(s *sched.Schedule) (*sched.Schedule, error) { return sched.WithOrderPreservation(s, m, mode) },
			func() ([]int, error) { return m.Apply(layout) })
		if err != nil {
			return 0, err
		}
		for _, size := range req.Sizes {
			for _, pp := range []*simnet.PriceProfile{base, reord} {
				d, err = span("simnet.price", func() error { _, err := pp.Price(size); return err })
				if err != nil {
					return 0, err
				}
				ls.price += d
				ls.priceN++
				sum += d
			}
		}
	}
	// The response names its schedule: one more build.
	d, err = span("sched.build", func() error { _, err := scheduleFor(cluster, pat, req.Procs); return err })
	if err != nil {
		return 0, err
	}
	ls.build += d
	ls.buildN++
	sum += d
	return sum, nil
}

func mappingKey(m core.Mapping) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range m {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

func meanMs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

func meanUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

// report sets the request-path per-layer metrics.
func (ls *layerSums) report(res *result) {
	res.set("topology.cluster_us", meanUs(ls.cluster, ls.requests), "us")
	res.set("topology.fingerprint_us", meanUs(ls.fingerprint, ls.requests), "us")
	res.set("topology.oracle_ms", meanMs(ls.oracle, ls.requests), "ms")
	res.set("topology.dense_share", ratio(float64(ls.dense), float64(ls.requests)), "ratio")
	for name := range oracleHeuristics {
		res.set("core."+name+"_ms", meanMs(ls.heur[name], ls.heurN[name]), "ms")
	}
	res.set("scotch.map_ms", meanMs(ls.scotch, ls.scotchN), "ms")
	res.set("graph.build_ms", meanMs(ls.graphBuild, ls.graphN), "ms")
	res.set("sched.build_ms", meanMs(ls.build, ls.buildN), "ms")
	res.set("sched.order_fix_ms", meanMs(ls.orderFix, ls.orderFixN), "ms")
	res.set("sched.fingerprint_ms", meanMs(ls.schedFP, ls.schedFPN), "ms")
	res.set("sched.compile_cold_ms", meanMs(ls.compile, ls.compileN), "ms")
	res.set("sched.compile_alloc_mb", ratio(float64(ls.compileAlloc)/1e6, float64(ls.compileN)), "MB")
	res.set("simnet.machine_us", meanUs(ls.machine, ls.machineN), "us")
	res.set("simnet.profile_ms", meanMs(ls.profile, ls.profileN), "ms")
	res.set("simnet.price_us", meanUs(ls.price, ls.priceN), "us")
	res.notef("request-path replay over %d requests", ls.requests)
}

// reconcile replays reqs one at a time at GOMAXPROCS=1, so the "auto" race
// runs in series: for each request the compile cache is emptied, the
// layer parts are replayed and the same request is served by a cold
// Service.Compute (order alternating to cancel warm-cache bias). The parts
// are also replayed once more with no tracer, right before or after the
// traced replay (again alternating), and the pair's difference is what
// tracing cost that request.
func (ls *layerSums) reconcile(svc *service.Service, reqs []*service.Request, tr *tracer, deadline time.Time) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for i, req := range reqs {
		if time.Now().After(deadline) && i > 0 {
			break
		}
		id := int64(1_000_000 + i)
		var traced, plain time.Duration
		compute := func() error {
			sched.ResetCompileCache()
			root := tr.reserve()
			start := time.Now()
			resp, err := svc.Compute(context.Background(), req)
			end := time.Now()
			tr.close(root, "service.Compute", 0, id, start, end)
			if err != nil {
				return err
			}
			if resp.Degraded {
				return fmt.Errorf("reconcile: compute degraded")
			}
			ls.reconciledCompute += end.Sub(start)
			ls.computedN++
			return nil
		}
		parts := func() error {
			n := tr.count()
			start := time.Now()
			root := tr.reserve()
			sum, err := ls.replay(req, tr, root, id)
			tr.close(root, "replay", 0, id, start, time.Now())
			traced = time.Since(start)
			ls.replaySpans += tr.count() - n
			ls.reconciled += sum
			return err
		}
		untraced := func() error {
			start := time.Now()
			_, err := newLayerSums().replay(req, nil, 0, id)
			plain = time.Since(start)
			return err
		}
		steps := []func() error{compute, parts, untraced}
		if i%2 == 1 {
			steps[0], steps[2] = untraced, compute
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		ls.overhead[i%2] = append(ls.overhead[i%2], traced-plain)
	}
	return nil
}

// pairedOverhead is the tracing cost per traced unit: the mean of the
// median paired difference when the traced run went first and the one when
// it went second, so the warm-up the first run gives the second cancels.
func pairedOverhead(diffs [2][]time.Duration) float64 {
	var meds [2]float64
	for k, ds := range diffs {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = ms(d)
		}
		meds[k] = median(xs)
	}
	return (meds[0] + meds[1]) / 2
}
