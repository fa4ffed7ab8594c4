package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// perLayer names every per-layer metric with its unit. A traced run reports
// all of them; a layer the workload does not run reads 0 (workloads.json
// lists which workload each metric belongs to).
var perLayer = []struct{ name, unit string }{
	{"topology.cluster_us", "us"}, {"topology.fingerprint_us", "us"}, {"topology.oracle_ms", "ms"}, {"topology.dense_share", "ratio"},
	{"core.rdmh_ms", "ms"}, {"core.rmh_ms", "ms"}, {"core.bbmh_ms", "ms"}, {"core.bgmh_ms", "ms"}, {"core.bkmh_ms", "ms"},
	{"core.placements", "count"}, {"core.cost_evaluations", "count"},
	{"scotch.map_ms", "ms"}, {"graph.build_ms", "ms"},
	{"sched.build_ms", "ms"}, {"sched.order_fix_ms", "ms"}, {"sched.fingerprint_ms", "ms"}, {"sched.compile_cold_ms", "ms"},
	{"sched.compile_alloc_mb", "MB"}, {"sched.compile_cache_hit_ratio", "ratio"}, {"sched.compile_warm_ns", "ns"},
	{"simnet.machine_us", "us"}, {"simnet.profile_ms", "ms"}, {"simnet.price_us", "us"},
	{"service.decode_us", "us"}, {"service.encode_us", "us"}, {"service.compute_hit_us", "us"}, {"service.http_us", "us"},
	{"service.cache_hit_ratio", "ratio"}, {"service.flight_shared", "count"}, {"service.shed_ratio", "ratio"},
	{"service.queue_depth_max", "count"}, {"service.self_ms", "ms"}, {"service.reconcile_ratio", "ratio"},
	{"store.get_us", "us"}, {"store.put_us", "us"}, {"store.hit_ratio", "ratio"},
	{"collective.allgather_1k_us", "us"}, {"collective.allgather_2k_us", "us"}, {"collective.allgather_64k_us", "us"},
	{"collective.reordered_allgather_1k_us", "us"}, {"collective.allreduce_64k_us", "us"}, {"collective.alltoall_1k_us", "us"},
	{"collective.bcast_64k_root0_us", "us"}, {"collective.bcast_64k_offroot_us", "us"}, {"collective.gather_1k_offroot_us", "us"},
	{"collective.executor_us", "us"}, {"collective.selection_overhead_us", "us"}, {"collective.allocs_per_op", "count"},
	{"collective.reorder_setup_ms", "ms"},
	{"synth.select_ns", "ns"}, {"synth.hit_ratio", "ratio"},
	{"mpi.sendrecv_us", "us"}, {"mpi.barrier_us", "us"}, {"mpi.messages_per_op", "count"}, {"mpi.bytes_per_op", "count"},
	{"mpi.recv_wait_share", "ratio"}, {"obs.profiles_per_op", "count"},
	{"bench.error_ratio", "ratio"}, {"bench.trace_overhead_ms", "ms"}, {"bench.spans", "count"},
}

// finishTraced zero-fills the per-layer metrics the workload does not run,
// writes the spans and reports the error ratio.
func finishTraced(o *opts, res *result, tr *tracer) error {
	res.set("bench.error_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.set("bench.spans", float64(tr.count()), "count")
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			res.set(m.name, 0, m.unit)
		}
	}
	path := filepath.Join(o.buildDir(), "traces", fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	res.notef("spans written to %s", path)
	return nil
}

// counterDeltas snapshots process-wide counters so a phase can report its
// own increments.
type counterDeltas struct {
	values map[string]float64
	regs   []*metrics.Registry
}

func snapshotCounters(regs []*metrics.Registry, names ...string) *counterDeltas {
	cd := &counterDeltas{values: map[string]float64{}, regs: regs}
	for _, n := range names {
		cd.values[n] = counterSum(n, regs...)
	}
	return cd
}

func (cd *counterDeltas) delta(name string) float64 {
	return counterSum(name, cd.regs...) - cd.values[name]
}

// queueSampler polls the service's pool queue depth while traffic runs.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int64
}

func sampleQueue(svc *service.Service) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(200 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				q.max = max(q.max, svc.Ready().QueueDepth)
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() int64 {
	close(q.stop)
	<-q.done
	return q.max
}

// serviceDeltas reports the service counters' increments over a phase.
func serviceDeltas(res *result, before, after service.Stats) {
	reqs := float64(after.Requests - before.Requests)
	res.set("service.cache_hit_ratio", ratio(float64(after.CacheHits-before.CacheHits), reqs), "ratio")
	res.set("service.flight_shared", float64(after.FlightShared-before.FlightShared), "count")
	res.set("service.shed_ratio", ratio(float64(after.Shed-before.Shed), reqs), "ratio")
	hits, misses := float64(after.StoreHits-before.StoreHits), float64(after.StoreMisses-before.StoreMisses)
	res.set("store.hit_ratio", ratio(hits, hits+misses), "ratio")
}

var heuristicCounters = []string{"heuristic_placements_total", "heuristic_cost_evaluations_total", "heuristic_mappings_total"}

// reportHeuristicCounts turns heuristic counter deltas into per-mapping
// counts.
func reportHeuristicCounts(res *result, cd *counterDeltas) {
	n := cd.delta("heuristic_mappings_total")
	res.set("core.placements", ratio(cd.delta("heuristic_placements_total"), n), "count")
	res.set("core.cost_evaluations", ratio(cd.delta("heuristic_cost_evaluations_total"), n), "count")
}

// codecTimes measures the HTTP handler's JSON work on the run's own bodies:
// strict request decoding and indented response encoding.
func codecTimes(res *result, reqs []mapdReq, resps [][]byte) {
	var dec, enc time.Duration
	for _, r := range reqs {
		start := time.Now()
		d := json.NewDecoder(bytes.NewReader(r.Body))
		d.DisallowUnknownFields()
		var err error
		if r.Single != nil {
			var v service.Request
			err = d.Decode(&v)
		} else {
			var v service.BatchRequest
			err = d.Decode(&v)
		}
		dec += time.Since(start)
		if err != nil {
			res.fail("decode replay: %v", err)
		}
	}
	for _, data := range resps {
		var v any = &service.Response{}
		if bytes.Contains(data[:min(len(data), 32)], []byte(`"responses"`)) {
			v = &service.BatchResponse{}
		}
		if err := json.Unmarshal(data, v); err != nil {
			res.fail("encode replay: %v", err)
			continue
		}
		start := time.Now()
		e := json.NewEncoder(&bytes.Buffer{})
		e.SetIndent("", "  ")
		err := e.Encode(v)
		enc += time.Since(start)
		if err != nil {
			res.fail("encode replay: %v", err)
		}
	}
	res.set("service.decode_us", meanUs(dec, len(reqs)), "us")
	res.set("service.encode_us", meanUs(enc, len(resps)), "us")
}

// coldReconcileLo and coldReconcileHi bound how far the replayed parts may fall short
// of (or exceed) Service.Compute on mapd-cold: the remainder is the
// service's own work — request canonicalisation, cache key, store append,
// candidate fan-out — and must stay a small share.
const coldReconcileLo, coldReconcileHi = 0.75, 1.10

// traceCold is the traced mapd-cold run. Phase one repeats the closed loop
// with spans on every request and reports counter deltas; phase two replays
// the stream's requests layer by layer at GOMAXPROCS=1, reconciles the parts
// with Service.Compute and measures what tracing costs a replay.
func traceCold(o *opts, res *result) error {
	tr := newTracer()
	m, err := openMapd(o)
	if err != nil {
		return err
	}
	defer m.close()
	gen := newColdGen(o.seed)
	cd := snapshotCounters([]*metrics.Registry{metrics.Default}, heuristicCounters...)
	cacheHits0, cacheMisses0 := sched.CompileCacheCounters()
	before := m.svc.Stats()
	q := sampleQueue(m.svc)
	var sent []mapdReq
	var bodies [][]byte
	deadline := time.Now().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		req := gen.next()
		root := tr.reserve()
		t0 := time.Now()
		status, data, perr := m.post(req.Body)
		t1 := time.Now()
		tr.add("http.post", root, int64(i), t0, t1)
		res.Attempted += int64(len(req.items()))
		out, cerr := checkExchange(&req, status, data, perr)
		tr.add("check", root, int64(i), t1, time.Now())
		tr.close(root, "request", 0, int64(i), t0, time.Now())
		if cerr != nil {
			res.fail("request %d: %v", i, cerr)
			continue
		}
		if out.degraded > 0 {
			res.fail("request %d: %d degraded or shed mappings", i, out.degraded)
		}
		sent = append(sent, req)
		bodies = append(bodies, data)
	}
	res.set("service.queue_depth_max", float64(q.finish()), "count")
	serviceDeltas(res, before, m.svc.Stats())
	reportHeuristicCounts(res, cd)
	cacheHits1, cacheMisses1 := sched.CompileCacheCounters()
	hits, misses := float64(cacheHits1-cacheHits0), float64(cacheMisses1-cacheMisses0)
	res.set("sched.compile_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	codecTimes(res, sent, bodies)
	var singles []*service.Request
	for _, r := range sent {
		if r.Single != nil {
			singles = append(singles, r.Single)
		}
	}
	if err := hitPathLayers(res, tr, m, singles); err != nil {
		return err
	}

	// Phase two: the same stream from the start, one request at a time, on
	// a second service with its own empty store (phase one's store would
	// answer every key).
	st, err := store.Open(filepath.Join(m.dir, "reconcile.log"))
	if err != nil {
		return err
	}
	defer st.Close()
	ref := service.New(service.Config{CacheEntries: 512, ShedOnPressure: true, Store: st})
	defer ref.Close()
	var reqs []*service.Request
	replayGen := newColdGen(o.seed)
	for len(reqs) < 400 {
		r := replayGen.next()
		reqs = append(reqs, r.items()...)
	}
	ls := newLayerSums()
	if err := ls.reconcile(ref, reqs, tr, time.Now().Add(time.Duration(o.seconds/2*float64(time.Second)))); err != nil {
		return err
	}
	ls.report(res)
	res.set("bench.trace_overhead_ms", pairedOverhead(ls.overhead), "ms")
	res.notef("tracing overhead: %.4f ms per replayed request (%.1f spans each), traced minus untraced over %d pairs",
		res.Metrics["bench.trace_overhead_ms"].Value, ratio(float64(ls.replaySpans), float64(ls.computedN)),
		len(ls.overhead[0])+len(ls.overhead[1]))
	share := ratio(float64(ls.reconciled), float64(ls.reconciledCompute))
	res.set("service.reconcile_ratio", share, "ratio")
	res.set("service.self_ms", meanMs(ls.reconciledCompute-ls.reconciled, ls.computedN), "ms")
	res.notef("reconciliation: replayed parts are %.3f of Service.Compute over %d requests (tolerance %.2f-%.2f)",
		share, ls.computedN, coldReconcileLo, coldReconcileHi)
	if share < coldReconcileLo || share > coldReconcileHi {
		res.fail("reconciliation: parts/Compute = %.3f outside [%.2f, %.2f]", share, coldReconcileLo, coldReconcileHi)
	}
	return finishTraced(o, res, tr)
}

// hitPathLayers times the cache-hit path one call at a time on requests the
// server has already answered — Service.Compute and the HTTP round trip —
// then store reads of live records and appends of the same values to a
// scratch log.
func hitPathLayers(res *result, tr *tracer, m *mapdServer, reqs []*service.Request) error {
	var hit, http []float64
	for i := 0; i < 400; i++ {
		req := reqs[i%len(reqs)]
		body := newSingle(req).Body
		if _, err := m.svc.Compute(context.Background(), req); err != nil {
			return err
		}
		d := tr.timed("service.Compute(hit)", 0, int64(2_000_000+i), func() { m.svc.Compute(context.Background(), req) })
		hit = append(hit, us(d))
		d = tr.timed("http.post(hit)", 0, int64(2_000_000+i), func() { m.post(body) })
		http = append(http, us(d))
	}
	res.set("service.compute_hit_us", median(hit), "us")
	res.set("service.http_us", median(http), "us")

	keys := m.st.Keys("m/")
	var get []float64
	var vals [][]byte
	for i := 0; i < 400 && len(keys) > 0; i++ {
		k := keys[(i*7919)%len(keys)]
		var v []byte
		d := tr.timed("store.Get", 0, int64(3_000_000+i), func() { v, _ = m.st.Get(k) })
		get = append(get, us(d))
		vals = append(vals, v)
	}
	res.set("store.get_us", median(get), "us")
	scratch, err := store.Open(filepath.Join(m.dir, "scratch.log"))
	if err != nil {
		return err
	}
	var put []float64
	for i, v := range vals {
		var perr error
		d := tr.timed("store.Put", 0, int64(4_000_000+i), func() { perr = scratch.Put(fmt.Sprintf("m/%d", i), v) })
		if perr != nil {
			scratch.Close()
			return perr
		}
		put = append(put, us(d))
	}
	if err := scratch.Close(); err != nil {
		return err
	}
	res.set("store.put_us", median(put), "us")
	return nil
}

// traceRuntime is the traced runtime-mix run: the set-up's mapping request
// replayed layer by layer, then on the live world the mix in two windows
// (each tracing every other call, the parity swapped between them), the
// per-call counts of each op class, the executor alone on the front door's
// program, the transport floor and the reorder set-up.
func traceRuntime(o *opts, res *result, st *rtSetup) error {
	tr := newTracer()
	ls := newLayerSums()
	if _, err := ls.replay(st.request, tr, 0, 0); err != nil {
		return err
	}
	ls.report(res)

	sh := newShared()
	window := time.Duration(o.seconds * 0.3 * float64(time.Second))
	var (
		windows                  [2]*mixRun
		cycles                   [2][]time.Duration
		tHits0, tMiss0           uint64
		tHits1, tMiss1           uint64
		base                     counts
		perOp                    = make([]counts, len(rtOps))
		execLat, doorLat, barLat []float64
		srBySize                 map[int][]float64
		reorderLat               []float64
	)
	srBySize = map[int][]float64{}
	err := startWorld(st, func() {}, func(rs *rankState) error {
		me := rs.c.Rank()
		// Both windows run the same call sequence. Window one traces the odd
		// calls and window two the even ones, so each call is timed once
		// traced and once untraced, the traced run first for half of them.
		for w := 0; w < 2; w++ {
			if me == 0 {
				if w == 0 {
					tHits0, tMiss0 = synth.TableCounters()
				}
				sh.times = make([][][2]int64, rtRanks)
				sh.ops = nil
				sh.cycles = nil
				sh.stopAt.Store(math.MaxInt64)
			}
			if err := rs.c.Barrier(); err != nil {
				return err
			}
			if err := runMix(rs, sh, o.seed, time.Now().Add(window), tr, 1-w); err != nil {
				return err
			}
			if err := rs.c.Barrier(); err != nil {
				return err
			}
			if me == 0 {
				windows[w] = sh.collect()
				cycles[w] = sh.cycles
				if w == 1 {
					tHits1, tMiss1 = synth.TableCounters()
				}
			}
			if err := rs.c.Barrier(); err != nil {
				return err
			}
		}

		// Per-call counts of each op class, from front-door calls alone.
		b, err := countedLoop(rs, nil, 0)
		if err != nil {
			return err
		}
		for i := range rtOps {
			op := &rtOps[i]
			prepareInput(rs, op, 0)
			c, err := countedLoop(rs, op, countedCalls)
			if err != nil {
				return err
			}
			if len(rs.recv[op.name]) > heavyOutput {
				rs.recv[op.name] = nil
			}
			if me == 0 {
				perOp[i] = c
			}
		}
		if me == 0 {
			base = b
		}

		// The executor alone, on the program the 1 KiB allgather front door
		// resolves to.
		fam, err := sched.FamilyAllgather.Desc()
		if err != nil {
			return err
		}
		prog, err := fam.BuildCached(fam.Baseline(rtRanks, kib), rtRanks)
		if err != nil {
			return err
		}
		send, recv := make([]byte, kib), make([]byte, kib*rtRanks)
		fillBlock(send, 0, me)
		door, err := timedLoop(rs.c, tr, "collective.Allgather", 300, func() error {
			return collective.Allgather(rs.c, send, recv, collective.AlgAuto)
		})
		if err != nil {
			return err
		}
		lat, err := timedLoop(rs.c, tr, "collective.ExecuteAllgather", 300, func() error {
			return collective.ExecuteAllgather(rs.c, prog, send, recv, nil)
		})
		if err != nil {
			return err
		}
		if me == 0 {
			execLat, doorLat = lat, door
		}
		// Transport floor: one SendRecv ring step at each message size.
		for _, size := range []int{kib, 2 * kib, 64 * kib} {
			buf := make([]byte, size)
			lat, err := timedLoop(rs.c, tr, fmt.Sprintf("mpi.SendRecv(%d)", size), 200, func() error {
				_, err := rs.c.SendRecv((me+1)%rtRanks, buf, (me+rtRanks-1)%rtRanks, 9100)
				return err
			})
			if err != nil {
				return err
			}
			if me == 0 {
				srBySize[size] = lat
			}
		}
		bar, err := timedLoop(rs.c, tr, "mpi.Barrier", 300, func() error { return rs.c.Barrier() })
		if err != nil {
			return err
		}
		reorder, err := timedLoop(rs.c, tr, "collective.NewReordered", 5, func() error {
			_, err := collective.NewReordered(rs.c, st.mapping, st.mode)
			return err
		})
		if me == 0 {
			barLat, reorderLat = bar, reorder
		}
		return err
	})
	if err != nil {
		return err
	}
	for _, mr := range windows {
		res.Attempted += int64(mr.calls)
	}
	if f := sh.failures.Load(); f > 0 {
		res.Failed += f
		res.Correct = false
		res.notef("FAILED CHECK: %d rank outputs wrong; first: %s", f, *sh.firstErr.Load())
	}
	var overhead [2][]time.Duration
	for k := 0; k < min(len(cycles[0]), len(cycles[1])); k++ {
		if k%2 == 1 { // traced in window one, the first
			overhead[0] = append(overhead[0], cycles[0][k]-cycles[1][k])
		} else {
			overhead[1] = append(overhead[1], cycles[1][k]-cycles[0][k])
		}
	}
	res.set("bench.trace_overhead_ms", pairedOverhead(overhead), "ms")
	res.notef("tracing overhead: %.5f ms per traced call on rank 0, traced minus untraced over %d pairs",
		res.Metrics["bench.trace_overhead_ms"].Value, len(overhead[0])+len(overhead[1]))

	byOp := map[string][]float64{}
	for _, mr := range windows {
		for k, op := range mr.ops {
			byOp[rtOps[op].name] = append(byOp[rtOps[op].name], mr.lat[k]*1000)
		}
	}
	for _, op := range rtOps {
		res.set("collective."+op.name+"_us", median(byOp[op.name]), "us")
	}
	res.set("collective.executor_us", median(execLat), "us")
	res.set("collective.selection_overhead_us", median(doorLat)-median(execLat), "us")
	res.set("collective.reorder_setup_ms", median(reorderLat)/1000, "ms")
	res.set("synth.hit_ratio", ratio(float64(tHits1-tHits0), float64(tHits1-tHits0+tMiss1-tMiss0)), "ratio")
	reportCounts(res, base, perOp)
	res.set("mpi.barrier_us", median(barLat), "us")
	// The floor beside the selection overhead: the ring step at each op's
	// message size, weighted as the mix calls it.
	var floor, weights float64
	sizes := make([]int, 0, len(srBySize))
	for s := range srBySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, op := range rtOps {
		size := op.bytes
		if _, ok := srBySize[size]; !ok {
			continue
		}
		floor += float64(op.weight) * median(srBySize[size])
		weights += float64(op.weight)
	}
	res.set("mpi.sendrecv_us", floor/weights, "us")
	for _, s := range sizes {
		res.notef("mpi SendRecv ring step at %d B: p50 %.1f us", s, median(srBySize[s]))
	}
	res.notef("selection overhead %.1f us (1 KiB allgather front door alone %.1f us - executor %.1f us); transport floor %.1f us",
		res.Metrics["collective.selection_overhead_us"].Value, median(doorLat), median(execLat), floor/weights)

	// Single-goroutine costs of the selection layers and the flight
	// recorder's record path, one span per loop.
	const n = 20000
	d := tr.timed("synth.Selector.Program x20000", 0, 7_000_000, func() {
		for i := 0; i < n; i++ {
			st.selector.Program(synth.Allgather, rtRanks, 2*kib)
		}
	})
	res.set("synth.select_ns", float64(d.Nanoseconds())/n, "ns")
	rec := obs.NewRecorder(1024)
	tr.timed("obs.Recorder.Record x20000", 0, 7_000_001, func() {
		for i := 0; i < n; i++ {
			rec.Record(obs.Profile{})
		}
	})
	s, err := sched.ForPattern(core.Ring, rtRanks)
	if err != nil {
		return err
	}
	if _, err := sched.CompileCached(s); err != nil {
		return err
	}
	d = tr.timed("sched.CompileCached(warm) x2000", 0, 7_000_002, func() {
		for i := 0; i < n/10; i++ {
			sched.CompileCached(s)
		}
	})
	res.set("sched.compile_warm_ns", float64(d.Nanoseconds())/(n/10), "ns")
	return finishTraced(o, res, tr)
}

// countedCalls is the number of front-door calls per op class whose
// process-wide counter increments give the per-call counts.
const countedCalls = 20

// counts are process-wide counter increments over a run of calls.
type counts struct {
	mallocs                                  float64
	messages, bytes, profiles, recvWait, sec float64
}

func readCounts() (c counts, at time.Time) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	at = time.Now()
	c.mallocs = float64(m.Mallocs)
	c.messages = counterSum("mpi_messages_sent_total", metrics.Default)
	c.bytes = counterSum("mpi_bytes_sent_total", metrics.Default)
	c.profiles = counterSum("obs_profiles_recorded_total", metrics.Default)
	c.recvWait, _ = histSum("mpi_recv_wait_seconds", metrics.Default)
	return c, at
}

// Tags of the fence's two halves.
const tagFenceGather, tagFenceRelease = 9200, 9201

// fence is a barrier that runs fn on rank 0 between its gather and release
// halves: every other rank then waits for the release, so none sends or
// allocates while fn reads process-wide counters.
func fence(c *mpi.Comm, fn func()) error {
	if c.Rank() != 0 {
		if err := c.Send(0, tagFenceGather, nil); err != nil {
			return err
		}
		_, err := c.Recv(0, tagFenceRelease)
		return err
	}
	for r := 1; r < c.Size(); r++ {
		if _, err := c.Recv(r, tagFenceGather); err != nil {
			return err
		}
	}
	fn()
	for r := 1; r < c.Size(); r++ {
		if err := c.Send(r, tagFenceRelease, nil); err != nil {
			return err
		}
	}
	return nil
}

// countedLoop runs n front-door calls of op back to back on every rank,
// between two fences, and returns on rank 0 the counter increments between
// the fences' reads; sec is rank-seconds (wall time x ranks). With n = 0 it
// measures the fences alone, which reportCounts subtracts.
func countedLoop(rs *rankState, op *rtOp, n int) (counts, error) {
	var before, after counts
	var t0, t1 time.Time
	if err := fence(rs.c, func() { before, t0 = readCounts() }); err != nil {
		return counts{}, err
	}
	for i := 0; i < n; i++ {
		if err := callOp(rs, op); err != nil {
			return counts{}, fmt.Errorf("counted %s: %w", op.name, err)
		}
	}
	if err := fence(rs.c, func() { after, t1 = readCounts() }); err != nil {
		return counts{}, err
	}
	return counts{
		mallocs:  after.mallocs - before.mallocs,
		messages: after.messages - before.messages,
		bytes:    after.bytes - before.bytes,
		profiles: after.profiles - before.profiles,
		recvWait: after.recvWait - before.recvWait,
		sec:      t1.Sub(t0).Seconds() * rtRanks,
	}, nil
}

// reportCounts sets the per-call counts: each op class's increments less
// the fences', per call, weighted as the mix calls the classes.
func reportCounts(res *result, base counts, perOp []counts) {
	var sum counts
	for i, c := range perOp {
		w := float64(rtOps[i].weight) / rtBlockLen / countedCalls
		sum.mallocs += w * (c.mallocs - base.mallocs)
		sum.messages += w * (c.messages - base.messages)
		sum.bytes += w * (c.bytes - base.bytes)
		sum.profiles += w * (c.profiles - base.profiles)
		sum.recvWait += w * (c.recvWait - base.recvWait)
		sum.sec += w * (c.sec - base.sec)
	}
	res.set("collective.allocs_per_op", sum.mallocs, "count")
	res.set("mpi.messages_per_op", sum.messages, "count")
	res.set("mpi.bytes_per_op", sum.bytes, "count")
	res.set("obs.profiles_per_op", sum.profiles, "count")
	res.set("mpi.recv_wait_share", ratio(sum.recvWait, sum.sec), "ratio")
}

// timedLoop runs fn n times on every rank, each from a shared barrier exit,
// and returns on rank 0 the slowest rank's time per iteration, in us. Rank 0
// records one span per iteration, under the name of the call it times.
func timedLoop(c *mpi.Comm, tr *tracer, name string, n int, fn func() error) ([]float64, error) {
	var out []float64
	me := c.Rank()
	for i := 0; i < n; i++ {
		if err := c.Barrier(); err != nil {
			return out, err
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return out, err
		}
		d := time.Since(t0)
		if me == 0 {
			tr.add(name, 0, int64(6_000_000+i), t0, t0.Add(d))
		}
		loopSlots.mu.Lock()
		loopSlots.d[me] = d
		loopSlots.mu.Unlock()
		if err := c.Barrier(); err != nil {
			return out, err
		}
		if me == 0 {
			var slowest time.Duration
			loopSlots.mu.Lock()
			for _, v := range loopSlots.d {
				slowest = max(slowest, v)
			}
			loopSlots.mu.Unlock()
			out = append(out, us(slowest))
		}
		if err := c.Barrier(); err != nil {
			return out, err
		}
	}
	return out, nil
}

var loopSlots struct {
	mu sync.Mutex
	d  [rtRanks]time.Duration
}
