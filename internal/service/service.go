// Package service implements mapd, a long-running topology-aware mapping
// service over the paper's heuristics. A request names a modelled cluster, a
// communication pattern and a heuristic selector; the response carries the
// rank permutation, the modelled default/reordered latency at each requested
// message size and the per-size adaptive routing decision.
//
// The service is concurrent at the request level — the first layer of this
// codebase that is — and built from four cooperating mechanisms:
//
//   - a content-addressed result cache: requests are canonicalised and
//     hashed (topology fingerprint, pattern fingerprint, heuristic, sizes)
//     so the recurring (topology, pattern) requests of job-launch traffic
//     are answered from memory;
//   - single-flight deduplication: concurrent identical requests compute
//     once, with followers sharing the leader's result;
//   - a bounded worker pool sharding independent computations across cores,
//     with "auto" mode racing the four fine-tuned heuristics in parallel
//     and keeping the winner by modelled cost;
//   - per-request deadlines threaded as context cancellation into the
//     heuristic traversal loops, so an over-budget request degrades to the
//     identity mapping (Degraded=true) instead of blocking a worker.
package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config tunes a Service.
type Config struct {
	// Workers bounds concurrent mapping computations (default: NumCPU).
	Workers int
	// CacheEntries bounds the result cache (default 512).
	CacheEntries int
	// DefaultTimeout applies to requests without timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline (default 60s).
	MaxTimeout time.Duration
	// Params overrides the cost-model constants (default simnet.DefaultParams).
	Params *simnet.Params
	// SLOLatency is the per-request latency objective the burn-rate alerts
	// measure against (default 500ms).
	SLOLatency time.Duration
	// SLOTarget is the objective's success fraction; the error budget is
	// 1-SLOTarget (default 0.99).
	SLOTarget float64
	// SLOTick is the burn-rate sampling period (default 10s).
	SLOTick time.Duration
	// ReadyMaxQueue is the pool queue depth at which /readyz starts
	// shedding (default 2x Workers).
	ReadyMaxQueue int
	// CacheBytes bounds the result cache's approximate heap footprint
	// (default 256 MiB). The entry bound still applies; whichever is hit
	// first evicts.
	CacheBytes int64
	// Store, when set, persists computed responses and synth tables across
	// restarts. The service owns neither opening nor closing it.
	Store *store.Store
	// Shard, when set, makes this replica one shard of a consistent-hash
	// fleet: misses on keys another replica owns are forwarded there.
	Shard *ShardConfig
	// ShedOnPressure turns the /readyz queue-depth threshold into admission
	// control: once the pool queue reaches ReadyMaxQueue, new computations
	// answer with the identity mapping (Degraded) instead of queueing. Off
	// by default — single-process embedders prefer to absorb bursts.
	ShedOnPressure bool
}

func (cfg *Config) withDefaults() Config {
	out := *cfg
	if out.Workers <= 0 {
		out.Workers = runtime.NumCPU()
	}
	if out.CacheEntries <= 0 {
		out.CacheEntries = 512
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 10 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 60 * time.Second
	}
	if out.SLOLatency <= 0 {
		out.SLOLatency = 500 * time.Millisecond
	}
	if out.SLOTarget <= 0 || out.SLOTarget >= 1 {
		out.SLOTarget = 0.99
	}
	if out.SLOTick <= 0 {
		out.SLOTick = 10 * time.Second
	}
	if out.ReadyMaxQueue <= 0 {
		out.ReadyMaxQueue = 2 * out.Workers
	}
	return out
}

// Service is the mapping service. Create with New, share freely across
// goroutines, Close when done.
type Service struct {
	cfg      Config
	pool     *workerPool
	cache    *resultCache
	flight   *flightGroup
	stats    *statsCollector
	burn     burnTracker
	stopBurn chan struct{}
	stopOnce sync.Once

	store *store.Store
	shard atomic.Pointer[shardState]

	synthMu     sync.Mutex
	synthTables map[string]*synth.Table // topology fingerprint -> table
}

// New builds a Service from cfg (zero value: all defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	stats := newStatsCollector()
	s := &Service{
		cfg:         cfg,
		pool:        newWorkerPool(cfg.Workers, stats.queueDepth),
		cache:       newResultCache(cfg.CacheEntries, cfg.CacheBytes, stats.evictions, stats.cacheEntries, stats.cacheBytes),
		flight:      newFlightGroup(),
		stats:       stats,
		stopBurn:    make(chan struct{}),
		store:       cfg.Store,
		synthTables: make(map[string]*synth.Table),
	}
	s.loadSynthTables()
	s.refreshStoreGauges()
	if cfg.Shard != nil {
		s.setShardState(cfg.Shard.Self, cfg.Shard.Peers, cfg.Shard.VNodes, cfg.Shard.Client)
	}
	go s.burnLoop()
	return s
}

// MaxTimeout returns the cap on request deadlines the service runs under
// (Config.MaxTimeout, or its 60 s default when unset).
func (s *Service) MaxTimeout() time.Duration { return s.cfg.MaxTimeout }

// Registry returns the service's private metrics registry, for merging into
// an exposition endpoint alongside the process default registry.
func (s *Service) Registry() *metrics.Registry { return s.stats.reg }

// Close drains the worker pool and stops the SLO sampler. In-flight
// computations finish; subsequent Compute calls panic.
func (s *Service) Close() {
	s.stopOnce.Do(func() { close(s.stopBurn) })
	s.pool.close()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats { return s.stats.snapshot(s.cache.len(), s.cache.bytesHeld()) }

// Compute answers one mapping request. The error return is reserved for
// invalid requests and internal failures; deadline pressure instead yields
// a valid response with Degraded set and the identity mapping, so callers
// always have something runnable.
func (s *Service) Compute(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	s.stats.begin()
	outcome := outcomeError
	defer func() { s.stats.end(start, outcome) }()

	c, err := s.compile(req)
	if err != nil {
		return nil, err
	}
	resp, err := s.serve(ctx, req, c, nil, start)
	if err != nil {
		return nil, err
	}
	outcome = outcomeFor(resp)
	return resp, nil
}

// serve answers a compiled request: local cache, then persistent store,
// then single-flight into either a forward to the owning shard or a local
// computation. envFn, when non-nil, is the batch path's shared (lazily
// built) topology environment. serve does not touch the request-level
// counters — callers wrap it in begin/end.
func (s *Service) serve(ctx context.Context, req *Request, c *compiled, envFn func() (*topoEnv, error), start time.Time) (*Response, error) {
	timeout := c.timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var rec *trace.Recorder
	if c.trace {
		rec = trace.NewRecorder()
	}
	mark := func(name string) {
		rec.Record(trace.Event{Kind: trace.KindPoint, Peer: -1, Name: name})
	}

	if resp, ok := s.cache.get(c.key); ok {
		s.stats.hit()
		mark("cache-hit")
		return stamp(resp, true, start, rec), nil
	}
	s.stats.miss()

	if resp, ok := s.storeGet(c.key); ok {
		// A warm store answers without recomputing: promote into the LRU
		// and serve as a (persistent) cache hit.
		mark("store-hit")
		s.cache.put(c.key, resp)
		return stamp(resp, true, start, rec), nil
	}

	call, leader := s.flight.join(c.key)
	if !leader {
		s.stats.shared()
		mark("joined-inflight")
		select {
		case <-call.done:
			if call.err != nil {
				return nil, call.err
			}
			return stamp(call.resp, false, start, rec), nil
		case <-ctx.Done():
			// The leader is still computing but this caller's budget is
			// spent: degrade independently, leave the flight in place.
			mark("deadline-while-waiting")
			return stamp(degradedResponse(c), false, start, rec), nil
		}
	}

	resp, computed, err := s.leaderServe(ctx, req, c, envFn, mark)
	if err == nil && !resp.Degraded {
		s.cache.put(c.key, resp)
		if computed {
			// Only locally computed results persist: the owning shard's
			// store is the system of record for its keyspace slice.
			s.storePut(c.key, resp)
		}
	}
	s.flight.complete(c.key, call, resp, err)
	if err != nil {
		return nil, err
	}
	return stamp(resp, false, start, rec), nil
}

// leaderServe resolves a cache-missed key as the flight leader: forward to
// the owning shard when the ring says the key lives elsewhere, shed under
// queue pressure when admission control is on, otherwise compute locally.
// computed reports whether the response was produced by this replica.
func (s *Service) leaderServe(ctx context.Context, req *Request, c *compiled, envFn func() (*topoEnv, error), mark func(string)) (resp *Response, computed bool, err error) {
	if owner, url, remote := s.shardFor(c.key); remote && !c.forwarded {
		mark("forward:" + owner)
		resp, err := s.forwardRequest(ctx, url, req)
		if err != nil {
			// A dead or overloaded peer must not take this replica's
			// availability with it: degrade to the identity mapping.
			mark("forward-failed")
			return degradedResponse(c), false, nil
		}
		return resp, false, nil
	}
	if s.cfg.ShedOnPressure && s.stats.queueDepth.Value() >= int64(s.cfg.ReadyMaxQueue) {
		s.stats.shedded()
		mark("shed")
		return degradedResponse(c), false, nil
	}
	resp, err = s.leaderCompute(ctx, c, envFn, mark)
	if err == nil {
		resp.Shard = s.shardSelf()
	}
	return resp, true, err
}

func outcomeFor(resp *Response) int {
	if resp.Degraded {
		return outcomeDegraded
	}
	return outcomeOK
}

// stamp copies base and fills the per-request fields. Cached and shared
// responses are immutable; the copy keeps them so.
func stamp(base *Response, cached bool, start time.Time, rec *trace.Recorder) *Response {
	out := *base
	out.Cached = cached
	out.ElapsedMicros = time.Since(start).Microseconds()
	if rec != nil {
		evs := rec.Events(0)
		out.Trace = make([]TraceEvent, len(evs))
		for i, e := range evs {
			out.Trace[i] = TraceEvent{Name: e.Name, AtMicros: int64(e.When / time.Microsecond)}
		}
	}
	return &out
}

// expired reports whether ctx's budget is spent. It consults the clock as
// well as ctx.Err(): the now-memoised computes finish in single-digit
// milliseconds, faster than a loaded single-CPU runtime delivers timer
// cancellations, so checking only Err() would make tight deadlines
// nondeterministic.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// degradedResponse is the graceful-degradation fallback: the identity
// mapping keeps the job runnable with the default rank order.
func degradedResponse(c *compiled) *Response {
	return &Response{
		Mapping:   core.Identity(c.procs),
		Heuristic: c.selector,
		Order:     c.order,
		Degraded:  true,
	}
}

// leaderCompute runs the computation on the worker pool. A deadline while
// queueing (pool saturated) degrades immediately; a deadline inside the
// computation is detected by the heuristic loops and degrades there.
func (s *Service) leaderCompute(ctx context.Context, c *compiled, envFn func() (*topoEnv, error), mark func(string)) (*Response, error) {
	var (
		resp *Response
		err  error
		done = make(chan struct{})
	)
	if submitErr := s.pool.submit(ctx, func() {
		defer close(done)
		resp, err = s.run(ctx, c, envFn, mark)
	}); submitErr != nil {
		mark("deadline-in-queue")
		return degradedResponse(c), nil
	}
	<-done
	return resp, err
}

// candidate is one heuristic in the running for a request.
type candidate struct {
	name string
	fn   func(ctx context.Context, d topology.Oracle) (core.Mapping, error)
}

// contextHeuristics maps selector names to the cancellable heuristics. The
// oracle form lets the service feed them the compact hierarchical
// representation: for hierarchical clusters no O(p²) matrix is ever built.
var contextHeuristics = map[string]core.OracleHeuristic{
	"rdmh": core.RDMHOracle,
	"rmh":  core.RMHOracle,
	"bbmh": core.BBMHOracle,
	"bgmh": core.BGMHOracle,
	"bkmh": core.BKMHOracle,
}

// autoCandidates is the field "auto" races: the paper's four fine-tuned
// heuristics.
var autoCandidates = []string{"rdmh", "rmh", "bbmh", "bgmh"}

// candidates resolves the request's selector into the list of heuristics to
// evaluate.
func (s *Service) candidates(c *compiled) ([]candidate, error) {
	wrap := func(name string) candidate {
		h := contextHeuristics[name]
		return candidate{name: name, fn: func(ctx context.Context, d topology.Oracle) (core.Mapping, error) {
			return h(ctx, d, nil)
		}}
	}
	scotchCand := func() candidate {
		return candidate{name: "scotch", fn: func(ctx context.Context, d topology.Oracle) (core.Mapping, error) {
			guest := c.graph
			if guest == nil {
				var err error
				if guest, err = patterns.Build(c.pattern, c.procs); err != nil {
					return nil, err
				}
			}
			return scotch.MapContext(ctx, guest, d, nil)
		}}
	}
	switch {
	case c.selector == "scotch":
		return []candidate{scotchCand()}, nil
	case c.selector == "auto":
		out := make([]candidate, 0, len(autoCandidates)+1)
		for _, name := range autoCandidates {
			out = append(out, wrap(name))
		}
		if c.graph != nil {
			// For arbitrary graphs the general-purpose mapper belongs in
			// the race: the fine-tuned heuristics assume their pattern.
			out = append(out, scotchCand())
		}
		return out, nil
	case contextHeuristics[c.selector] != nil:
		return []candidate{wrap(c.selector)}, nil
	default:
		return nil, fmt.Errorf("service: unknown heuristic %q", c.selector)
	}
}

// evaluation is one candidate's scored result.
type evaluation struct {
	name    string
	mapping core.Mapping
	cost    float64 // comparison key: lower is better
	results []SizeResult
	gcost   *GraphCost
	err     error
}

// topoEnv is the per-topology compute environment: the distance oracle the
// heuristics traverse and the priced machine. Both depend only on
// (cluster, layout), so one env serves every pattern of a batch and every
// candidate of a request — building them per candidate was the dominant
// fixed cost of a cold request.
//
// The env also memoises the oracle heuristics' mappings: RDMH and friends
// read only the distance oracle, never the pattern or the sizes, so within
// a batch each heuristic traverses the topology once and its mapping is
// shared by every pattern that selects it. This is the bulk of the batch
// amortisation on large topologies.
type topoEnv struct {
	cluster *topology.Cluster
	oracle  topology.Oracle
	oracleK string // "hierarchy" or "dense", for trace marks
	machine *simnet.Machine

	heurMaps   onceMap[string, core.Mapping]
	schedNames onceMap[core.Pattern, string]

	decMu sync.Mutex
	decs  map[decKey]SizeResult

	baseProfs onceMap[core.Pattern, *simnet.PriceProfile]
	reordered onceMap[progKey, *simnet.PriceProfile]
}

// onceMap memoises values by key: each key builds at most once, concurrent
// callers of the same key wait for the builder, and distinct keys build in
// parallel (a single map mutex would serialise the heavy builds a batch
// fans out across the pool). A failed build is forgotten, so a later caller
// with budget left — e.g. a batch item with a looser deadline — retries.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceSlot[V]
}

type onceSlot[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (om *onceMap[K, V]) do(k K, build func() (V, error)) (V, error) {
	om.mu.Lock()
	if om.m == nil {
		om.m = make(map[K]*onceSlot[V])
	}
	s, ok := om.m[k]
	if !ok {
		s = &onceSlot[V]{}
		om.m[k] = s
	}
	om.mu.Unlock()
	s.once.Do(func() { s.val, s.err = build() })
	if s.err != nil {
		om.mu.Lock()
		if om.m[k] == s {
			delete(om.m, k)
		}
		om.mu.Unlock()
	}
	return s.val, s.err
}

// progKey identifies one compiled order-preserved schedule: the base pattern,
// the order fix and the permutation it bakes in.
type progKey struct {
	pattern core.Pattern
	mode    sched.OrderMode
	mapFP   uint64
}

// scheduleFor resolves the schedule the service prices for pat over p ranks:
// the pattern's registry builder, except that a family-default pattern on a
// cluster whose interconnect fingerprints as a torus covering every rank is
// re-materialised with the family's torus-native dimension-wise construction
// — the schedule-side win the complete-exchange pattern gets, since at the
// graph level every mapping of a complete graph prices identically.
func (e *topoEnv) scheduleFor(pat core.Pattern, p int) (*sched.Schedule, error) {
	if s, ok, err := e.torusSchedule(pat, p); ok {
		return s, err
	}
	return sched.ForPattern(pat, p)
}

// programFor compiles the schedule scheduleFor resolves. Registry schedules
// resolve by recipe, so a compile-cache hit skips the build and the
// fingerprint; torus-native schedules have no recipe and are keyed by their
// fingerprint.
func (e *topoEnv) programFor(pat core.Pattern, p int) (*sched.Program, error) {
	if s, ok, err := e.torusSchedule(pat, p); ok {
		if err != nil {
			return nil, err
		}
		return sched.CompileCached(s)
	}
	return sched.ProgramForPattern(pat, p)
}

// torusSchedule builds the torus-native schedule scheduleFor substitutes for
// pat, reporting false when the pattern or the cluster does not admit one.
func (e *topoEnv) torusSchedule(pat core.Pattern, p int) (*sched.Schedule, bool, error) {
	if spec, ok := sched.PatternFor(pat); ok && spec.FamilyDefault {
		if dims, torus := topology.TorusRankDims(e.cluster, p); torus {
			if fam, err := spec.Family.Desc(); err == nil && fam.TorusBuilder != nil {
				s, err := fam.TorusBuilder(dims)
				return s, true, err
			}
		}
	}
	return nil, false, nil
}

// scheduleNameFor reports the name of the schedule scheduleFor resolves,
// memoised per env (one build per pattern, shared across a batch).
func (e *topoEnv) scheduleNameFor(pat core.Pattern, p int) string {
	name, err := e.schedNames.do(pat, func() (string, error) {
		s, err := e.scheduleFor(pat, p)
		if err != nil {
			return "", err
		}
		return s.Name, nil
	})
	if err != nil {
		return ""
	}
	return name
}

// profilesFor builds the default and the order-preserved pricing profiles
// for (pattern, mapping, mode) at most once per env. Schedule construction,
// the compile-cache key hash and the contention aggregation cost
// milliseconds each at p=4096; a 32-pattern batch revisits the same few
// schedules dozens of times, so the memo turns the pricing loop into pure
// envelope evaluations.
func (e *topoEnv) profilesFor(pat core.Pattern, layout []int, m core.Mapping, mapFP uint64, mode sched.OrderMode) (base, reord *simnet.PriceProfile, err error) {
	base, err = e.baseProfs.do(pat, func() (*simnet.PriceProfile, error) {
		prog, err := e.programFor(pat, len(layout))
		if err != nil {
			return nil, err
		}
		return e.machine.Profile(prog, layout)
	})
	if err != nil {
		return nil, nil, err
	}
	key := progKey{pattern: pat, mode: mode, mapFP: mapFP}
	reord, err = e.reordered.do(key, func() (*simnet.PriceProfile, error) {
		schedule, err := e.scheduleFor(pat, len(layout))
		if err != nil {
			return nil, err
		}
		eff, err := m.Apply(layout)
		if err != nil {
			return nil, err
		}
		withOrder, err := sched.WithOrderPreservation(schedule, m, mode)
		if err != nil {
			return nil, err
		}
		prog, err := sched.CompileCached(withOrder)
		if err != nil {
			return nil, err
		}
		return e.machine.Profile(prog, eff)
	})
	if err != nil {
		return nil, nil, err
	}
	return base, reord, nil
}

// decKey identifies one priced adaptive decision within an env: the pattern
// schedule, the order fix, the message size and the mapping (by content
// fingerprint). Distinct heuristics frequently converge to the same
// permutation, and batches repeat (pattern, size) across heuristics — both
// collapse to one pricing.
type decKey struct {
	pattern core.Pattern
	mode    sched.OrderMode
	size    int
	mapFP   uint64
}

// mappingFingerprint is an FNV-1a over the permutation's bytes.
func mappingFingerprint(m core.Mapping) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range m {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	return h
}

// mappingFor runs fn once per heuristic name against the env's oracle and
// memoises the successful result. Failures (typically deadline
// cancellation) are not memoised, so a later item with budget left retries.
// Callers must not mutate the returned mapping.
func (e *topoEnv) mappingFor(ctx context.Context, name string, fn func(context.Context, topology.Oracle) (core.Mapping, error)) (core.Mapping, error) {
	return e.heurMaps.do(name, func() (core.Mapping, error) {
		return fn(ctx, e.oracle)
	})
}

// buildEnv constructs the topology environment for c. The machine is only
// built for named-pattern requests — explicit graphs are costed on the
// oracle alone.
func (s *Service) buildEnv(c *compiled) (*topoEnv, error) {
	env := &topoEnv{
		cluster: c.cluster,
		decs:    make(map[decKey]SizeResult),
	}
	// Prefer the compact hierarchical oracle: O(p) memory and the bucketed
	// find-closest kernel. Non-hierarchical clusters (tori) fall back to the
	// dense matrix and the scan kernel.
	if h, herr := topology.NewHierarchy(c.cluster, c.layout); herr == nil {
		env.oracle, env.oracleK = h, "hierarchy"
	} else {
		dense, err := topology.NewDistances(c.cluster, c.layout)
		if err != nil {
			return nil, err
		}
		env.oracle, env.oracleK = dense, "dense"
	}
	if c.graph == nil {
		params := simnet.DefaultParams()
		if s.cfg.Params != nil {
			params = *s.cfg.Params
		}
		machine, err := simnet.NewMachine(c.cluster, params)
		if err != nil {
			return nil, err
		}
		env.machine = machine
	}
	return env, nil
}

// run performs the actual computation on a pool worker: distances, then
// every candidate heuristic in parallel, then selection by modelled cost.
// envFn may be nil (single-request path) — the environment is built here;
// the batch path passes a shared lazy provider.
func (s *Service) run(ctx context.Context, c *compiled, envFn func() (*topoEnv, error), mark func(string)) (*Response, error) {
	s.stats.computed()
	var env *topoEnv
	if envFn != nil {
		shared, err := envFn()
		if err != nil {
			return nil, err
		}
		env = shared
	}
	if env == nil || (c.graph == nil && env.machine == nil) {
		built, err := s.buildEnv(c)
		if err != nil {
			return nil, err
		}
		env = built
	}
	mark("oracle:" + env.oracleK)
	mark("distances")
	if expired(ctx) != nil {
		return degradedResponse(c), nil
	}

	cands, err := s.candidates(c)
	if err != nil {
		return nil, err
	}
	evals := make([]evaluation, len(cands))
	var wg sync.WaitGroup
	for i := range cands {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			evals[i] = s.evaluate(ctx, c, env, cands[i])
			mark("evaluated:" + cands[i].name)
		}(i)
	}
	wg.Wait()

	best := -1
	for i := range evals {
		if evals[i].err != nil {
			continue
		}
		if best < 0 || evals[i].cost < evals[best].cost {
			best = i
		}
	}
	if best < 0 {
		// Nothing finished. Deadline pressure degrades; anything else is a
		// real failure worth surfacing.
		if err := unfinishedError(ctx, evals); err != nil {
			return nil, err
		}
		mark("deadline-degraded")
		return degradedResponse(c), nil
	}
	win := &evals[best]
	mark("selected:" + win.name)
	resp := &Response{
		Mapping:   win.mapping,
		Heuristic: win.name,
		Order:     c.order,
		Results:   win.results,
		GraphCost: win.gcost,
	}
	if c.graph == nil {
		resp.Schedule = env.scheduleNameFor(c.pattern, c.procs)
	}
	return resp, nil
}

// unfinishedError is the error to surface when no candidate finished: the
// first candidate error, or nil — degrade — when the request's budget is
// spent. The budget is judged by expired, the same clock-aware predicate
// evaluate fails on, so a deadline that passed before its timer cancelled
// ctx still degrades instead of failing the request.
func unfinishedError(ctx context.Context, evals []evaluation) error {
	if expired(ctx) != nil {
		return nil
	}
	for i := range evals {
		if evals[i].err != nil {
			return evals[i].err
		}
	}
	return nil
}

// evaluate computes one candidate's mapping and its modelled cost: the
// summed reordered latency across the size sweep for named patterns, the
// weighted-distance objective for explicit graphs. The oracle and machine
// come from the shared topology environment — simnet.Machine is
// concurrency-safe, so every candidate (and every batch pattern) prices on
// the same instance and shares its warm route caches.
func (s *Service) evaluate(ctx context.Context, c *compiled, env *topoEnv, cand candidate) evaluation {
	d := env.oracle
	ev := evaluation{name: cand.name}
	if contextHeuristics[cand.name] != nil {
		// Oracle heuristics depend only on the topology: memoise per env.
		// Scotch reads the pattern graph, so it always runs.
		ev.mapping, ev.err = env.mappingFor(ctx, cand.name, cand.fn)
	} else {
		ev.mapping, ev.err = cand.fn(ctx, d)
	}
	if ev.err != nil {
		return ev
	}
	if c.graph != nil {
		gc := &GraphCost{
			Default:   graphCostOf(c.graph, d, core.Identity(c.procs)),
			Reordered: graphCostOf(c.graph, d, ev.mapping),
		}
		ev.gcost = gc
		ev.cost = float64(gc.Reordered)
		return ev
	}

	mode, err := orderModeOf(c.order)
	if err != nil {
		ev.err = err
		return ev
	}
	mapFP := mappingFingerprint(ev.mapping)
	// Pricing one size at a time keeps a cancellation point between sizes,
	// so the loop also respects the deadline at size granularity. Decisions
	// memoise on the env keyed by (pattern, order, size, mapping): within a
	// batch, candidates that converge to the same permutation — and repeat
	// patterns across heuristics — price once. This mirrors
	// experiments.AdaptivePolicy exactly (default price on the base
	// schedule, reordered price on the order-preserved schedule over the
	// permuted layout, keep the reordering where it wins), with the schedule
	// build, compile and contention aggregation amortised across the env by
	// profilesFor.
	var base, reord *simnet.PriceProfile
	for _, size := range c.sizes {
		if err := expired(ctx); err != nil {
			ev.err = err
			return ev
		}
		key := decKey{pattern: c.pattern, mode: mode, size: size, mapFP: mapFP}
		env.decMu.Lock()
		res, ok := env.decs[key]
		env.decMu.Unlock()
		if !ok {
			if base == nil {
				base, reord, err = env.profilesFor(c.pattern, c.layout, ev.mapping, mapFP, mode)
				if err != nil {
					ev.err = err
					return ev
				}
			}
			def, err := base.Price(size)
			if err != nil {
				ev.err = err
				return ev
			}
			re, err := reord.Price(size)
			if err != nil {
				ev.err = err
				return ev
			}
			res = SizeResult{
				Bytes:            size,
				DefaultSeconds:   def,
				ReorderedSeconds: re,
				UseReordered:     re < def,
			}
			env.decMu.Lock()
			env.decs[key] = res
			env.decMu.Unlock()
		}
		ev.results = append(ev.results, res)
		ev.cost += res.ReorderedSeconds
	}
	return ev
}

// orderModeOf maps the canonical order name to the schedule transform.
func orderModeOf(name string) (sched.OrderMode, error) {
	switch name {
	case "initComm":
		return sched.InitComm, nil
	case "endShfl":
		return sched.EndShuffle, nil
	case "none":
		return sched.NoOrderFix, nil
	default:
		return 0, fmt.Errorf("service: unknown order mode %q", name)
	}
}

// graphCostOf is the mapping objective for explicit graphs: total
// weight x distance over every edge, with process u placed on slot m[u].
func graphCostOf(g *graph.Graph, d topology.Oracle, m core.Mapping) int64 {
	var sum int64
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				sum += e.W * int64(d.At(m[u], m[e.To]))
			}
		}
	}
	return sum
}
