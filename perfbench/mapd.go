package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// mapdServer is an in-process mapd: service.New configured like cmd/mapd's
// defaults (workers = CPUs, 512-entry cache, 10s/60s deadlines, shedding
// on) with a persistent store, served on a loopback listener.
type mapdServer struct {
	dir    string
	st     *store.Store
	svc    *service.Service
	srv    *http.Server
	url    string
	client *http.Client
	done   chan error
}

func openMapd(o *opts) (*mapdServer, error) {
	if err := os.MkdirAll(o.buildDir(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.buildDir(), "mapd-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	svc := service.New(service.Config{
		CacheEntries:   512,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		ShedOnPressure: true,
		Store:          st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	conns := runtime.NumCPU()
	m := &mapdServer{
		dir: dir, st: st, svc: svc,
		srv:  &http.Server{Handler: svc.Handler()},
		url:  "http://" + ln.Addr().String() + "/map",
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { m.done <- m.srv.Serve(ln) }()
	return m, nil
}

// close stops the listener, waits for the server goroutine, drains the
// service and removes the store.
func (m *mapdServer) close() {
	m.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.srv.Shutdown(ctx)
	if err := <-m.done; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: mapd serve:", err)
	}
	m.svc.Close()
	m.st.Close()
	os.RemoveAll(m.dir)
}

// post sends one /map body and returns the status and the full response
// body.
func (m *mapdServer) post(body []byte) (int, []byte, error) {
	resp, err := m.client.Post(m.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// outcome is one checked /map exchange.
type outcome struct {
	items    []*service.Request
	resps    []*service.Response
	mappings int
	degraded int
	bytes    int
}

// checkExchange verifies one response against the request that produced
// it: HTTP 200, one response per requested mapping, no degradation, every
// mapping a permutation of [0,p), and every priced size's adaptive decision
// equal to reordered_s < default_s.
func checkExchange(req *mapdReq, status int, data []byte, err error) (*outcome, error) {
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, data)
	}
	out := &outcome{items: req.items(), bytes: len(data)}
	if req.Single != nil {
		var r service.Response
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("decode response: %w", err)
		}
		out.resps = []*service.Response{&r}
	} else {
		var br service.BatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			return nil, fmt.Errorf("decode batch response: %w", err)
		}
		out.resps = br.Responses
	}
	if len(out.resps) != len(out.items) {
		return nil, fmt.Errorf("%d responses for %d mappings", len(out.resps), len(out.items))
	}
	for i, r := range out.resps {
		if r == nil {
			return nil, fmt.Errorf("item %d: null response", i)
		}
		if r.Degraded {
			out.degraded++
		}
		if err := checkMapping(r.Mapping, out.items[i].Procs); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
		if out.items[i].Pattern.Graph != nil {
			if r.GraphCost == nil && !r.Degraded {
				return nil, fmt.Errorf("item %d: graph request without graph_cost", i)
			}
			continue
		}
		if r.Degraded {
			continue
		}
		if len(r.Results) != len(out.items[i].Sizes) {
			return nil, fmt.Errorf("item %d: %d results for %d sizes", i, len(r.Results), len(out.items[i].Sizes))
		}
		for j, sr := range r.Results {
			if sr.Bytes != out.items[i].Sizes[j] {
				return nil, fmt.Errorf("item %d: result %d prices %d bytes, want %d", i, j, sr.Bytes, out.items[i].Sizes[j])
			}
			if sr.UseReordered != (sr.ReorderedSeconds < sr.DefaultSeconds) {
				return nil, fmt.Errorf("item %d: use_reordered=%v with reordered_s=%g default_s=%g", i, sr.UseReordered, sr.ReorderedSeconds, sr.DefaultSeconds)
			}
		}
	}
	out.mappings = len(out.items)
	return out, nil
}

func checkMapping(m []int, p int) error {
	if len(m) != p {
		return fmt.Errorf("mapping has %d entries, want %d", len(m), p)
	}
	seen := make([]bool, p)
	for _, v := range m {
		if v < 0 || v >= p || seen[v] {
			return fmt.Errorf("mapping is not a permutation of [0,%d)", p)
		}
		seen[v] = true
	}
	return nil
}

// improvementSum accumulates the modelled improvement a response delivers
// at every priced size: the default latency against the one the adaptive
// decision keeps (reordered only where it wins), as a percentage.
type improvementSum struct {
	sum float64
	n   int
}

func (s *improvementSum) add(r *service.Response) {
	for _, sr := range r.Results {
		if sr.DefaultSeconds > 0 {
			kept := sr.DefaultSeconds
			if sr.UseReordered {
				kept = sr.ReorderedSeconds
			}
			s.sum += (sr.DefaultSeconds - kept) / sr.DefaultSeconds * 100
			s.n++
		}
	}
}

func (s *improvementSum) pct() float64 { return ratio(s.sum, float64(s.n)) }

// sampleCheck keeps a seeded sample of served mappings and, after the timed
// span, recomputes each through a fresh in-process Service.Compute and
// compares the mappings entry for entry.
type sampleCheck struct {
	r     *rand.Rand
	share float64
	reqs  []*service.Request
	got   [][]int
}

func newSampleCheck(seed int64, share float64) *sampleCheck {
	return &sampleCheck{r: rand.New(rand.NewSource(seed ^ 0x5eed)), share: share}
}

func (s *sampleCheck) offer(out *outcome) {
	if s.r.Float64() >= s.share {
		return
	}
	for i, r := range out.resps {
		if !r.Degraded {
			s.reqs = append(s.reqs, out.items[i])
			s.got = append(s.got, r.Mapping)
		}
	}
}

func (s *sampleCheck) verify(res *result) {
	ref := service.New(service.Config{})
	defer ref.Close()
	for i, req := range s.reqs {
		want, err := ref.Compute(context.Background(), req)
		if err != nil {
			res.fail("reference compute: %v", err)
			continue
		}
		if want.Degraded {
			res.fail("reference compute degraded")
			continue
		}
		if !equalInts(want.Mapping, s.got[i]) {
			res.fail("served mapping differs from in-process Service.Compute (request %s)", keyOf(req))
		}
	}
	res.notef("reference check: %d sampled mappings recomputed in-process", len(s.reqs))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coldQualityN is the fixed stream prefix improvement_pct averages over, so
// the value repeats exactly for a seed whatever the machine's speed.
var coldQualityN = 80 * len(coldTemplate) // eighty stratified blocks

func setupColdProbe(o *opts) (func(), error) {
	m, err := openMapd(o)
	if err != nil {
		return nil, err
	}
	return m.close, nil
}

// runCold is mapd-cold: one closed-loop client over a stream of distinct
// keys, so every mapping misses the result cache and the store.
func runCold(o *opts, res *result) error {
	if err := checkStreamDeterminism(o.seed); err != nil {
		res.fail("%v", err)
	}
	if o.trace {
		return traceCold(o, res)
	}
	m, err := openMapd(o)
	if err != nil {
		return err
	}
	defer m.close()
	gen := newColdGen(o.seed)
	sample := newSampleCheck(o.seed, 0.03)
	var (
		lat         []float64
		mappings    int
		bytesServed int
		inSLO       int
		quality     improvementSum
	)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < coldQualityN || time.Now().Before(deadline); i++ {
		req := gen.next()
		t0 := time.Now()
		status, data, perr := m.post(req.Body)
		d := time.Since(t0)
		res.Attempted += int64(len(req.items()))
		out, cerr := checkExchange(&req, status, data, perr)
		if cerr != nil {
			res.fail("request %d: %v", i, cerr)
			continue
		}
		if out.degraded > 0 {
			res.fail("request %d: %d degraded or shed mappings", i, out.degraded)
		}
		lat = append(lat, ms(d))
		if d <= coldSLO {
			inSLO += out.mappings
		}
		mappings += out.mappings
		bytesServed += out.bytes
		if i < coldQualityN {
			for _, r := range out.resps {
				quality.add(r)
			}
		}
		sample.offer(out)
	}
	elapsed := time.Since(start).Seconds()
	sample.verify(res)
	setTail(res, lat)
	res.set("latency_p50_ms", median(lat), "ms")
	res.set("throughput_ops_s", float64(mappings)/elapsed, "1/s")
	res.set("max_rate_at_slo_rps", float64(inSLO)/elapsed, "1/s")
	res.set("improvement_pct", quality.pct(), "%")
	res.set("goodput_mb_s", float64(bytesServed)/elapsed/1e6, "MB/s")
	res.notef("%d requests, %d mappings in %.2fs; improvement over the first %d requests (%d priced sizes)", len(lat), mappings, elapsed, coldQualityN, quality.n)
	return nil
}

// coldSLO is mapd's default SLOLatency: on the closed-loop workloads
// max_rate_at_slo_rps counts the completions per second that met it.
const coldSLO = 500 * time.Millisecond

// checkStreamDeterminism regenerates the head of the seed's stream twice and
// once under the next seed: the same seed must give byte-identical bodies
// and another seed a different stream.
func checkStreamDeterminism(seed int64) error {
	const n = 64
	a := newColdGen(seed)
	b := newColdGen(seed)
	c := newColdGen(seed + 1)
	da, db, dc := streamDigest(a.next, n), streamDigest(b.next, n), streamDigest(c.next, n)
	if da != db {
		return fmt.Errorf("seed %d: request stream is not reproducible", seed)
	}
	if da == dc {
		return fmt.Errorf("seeds %d and %d give the same request stream", seed, seed+1)
	}
	return nil
}
