package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/service"
)

// mapdReq is one generated /map body together with its parsed form. The
// program under test only ever sees Body; the parsed form drives the output
// checks and the traced per-layer replays.
type mapdReq struct {
	Body   []byte
	Single *service.Request      // set for single requests
	Batch  *service.BatchRequest // set for batch requests
}

// items returns the request as one standalone Request per mapping it asks
// for (a batch expands to its patterns with the batch defaults resolved).
func (m *mapdReq) items() []*service.Request {
	if m.Single != nil {
		return []*service.Request{m.Single}
	}
	b := m.Batch
	out := make([]*service.Request, len(b.Patterns))
	for i, p := range b.Patterns {
		req := &service.Request{
			Topology:  b.Topology,
			Procs:     b.Procs,
			Layout:    b.Layout,
			Pattern:   service.PatternSpec{Name: p.Name, Graph: p.Graph},
			Heuristic: p.Heuristic,
			Sizes:     p.Sizes,
		}
		if req.Heuristic == "" {
			req.Heuristic = b.Heuristic
		}
		if len(req.Sizes) == 0 {
			req.Sizes = b.Sizes
		}
		out[i] = req
	}
	return out
}

func newSingle(req *service.Request) mapdReq {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return mapdReq{Body: body, Single: req}
}

func newBatch(b *service.BatchRequest) mapdReq {
	body, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	return mapdReq{Body: body, Batch: b}
}

var (
	layoutNames   = []string{"block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter"}
	oracleHeurs   = []string{"rdmh", "rmh", "bbmh", "bgmh", "bkmh"}
	flatPatterns  = []string{"ring", "binomial-broadcast", "binomial-gather"}
	torusPatterns = []string{"ring", "binomial-broadcast", "alltoall"}
)

// osuSizes draws 1-3 distinct message sizes from the OSU sweep (1 B to
// 1 MiB in powers of two), sorted as the service canonicalises them.
func osuSizes(r *rand.Rand) []int {
	n := 1 + r.Intn(3)
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		s := 1 << r.Intn(21)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// heuristicFor picks the selector: mostly the "auto" race, otherwise one
// explicit oracle heuristic.
func heuristicFor(r *rand.Rand, autoShare float64) string {
	if r.Float64() < autoShare {
		return "auto"
	}
	return oracleHeurs[r.Intn(len(oracleHeurs))]
}

// keyOf is the generator's own distinctness key: every field the service's
// content-addressed cache key depends on, in canonical form.
func keyOf(req *service.Request) string {
	topo, _ := json.Marshal(req.Topology)
	pat := req.Pattern.Name
	if g := req.Pattern.Graph; g != nil {
		h := fnv.New64a()
		data, _ := json.Marshal(g)
		h.Write(data)
		pat = fmt.Sprintf("graph:%x", h.Sum64())
	}
	return fmt.Sprintf("%s|%d|%s|%s|%s|%v", topo, req.Procs, req.Layout, pat, req.Heuristic, req.Sizes)
}

// fatTreeSpec draws a two-level fat tree with 2-8 leaves.
func fatTreeSpec(r *rand.Rand, maxCores int) service.TopologySpec {
	for {
		leaves := 2 + r.Intn(7)
		npl := 2 + r.Intn(7)
		spec := service.TopologySpec{
			Nodes:          leaves * npl,
			SocketsPerNode: 1 + r.Intn(2),
			CoresPerSocket: 2 + r.Intn(7),
			Network:        &service.NetworkSpec{Kind: "fattree", Leaves: leaves, NodesPerLeaf: npl, Uplinks: 1 + r.Intn(npl)},
		}
		if spec.Nodes*spec.SocketsPerNode*spec.CoresPerSocket <= maxCores {
			return spec
		}
	}
}

// torusSpec draws a 2-D or 3-D torus with at most maxCores cores.
func torusSpec(r *rand.Rand, maxCores int) service.TopologySpec {
	for {
		x, y, z := 2+r.Intn(7), 2+r.Intn(7), 1
		if r.Intn(2) == 0 {
			z = 2 + r.Intn(3)
		}
		spec := service.TopologySpec{
			Nodes:          x * y * z,
			SocketsPerNode: 1 + r.Intn(2),
			CoresPerSocket: 1 + r.Intn(2),
			Network:        &service.NetworkSpec{Kind: "torus", X: x, Y: y, Z: z},
		}
		if spec.Nodes*spec.SocketsPerNode*spec.CoresPerSocket <= maxCores {
			return spec
		}
	}
}

func totalCores(spec service.TopologySpec) int {
	if spec.Preset == "gpc" {
		return 4096
	}
	return spec.Nodes * spec.SocketsPerNode * spec.CoresPerSocket
}

// procsFor uses the whole machine half the time, otherwise a random share of
// at least half of it.
func procsFor(r *rand.Rand, total int) int {
	if r.Intn(2) == 0 {
		return total
	}
	return total/2 + r.Intn(total-total/2+1)
}

// patternFor picks a named pattern; recursive doubling only on power-of-two
// process counts.
func patternFor(r *rand.Rand, pats []string, procs int) string {
	if isPow2(procs) && r.Intn(4) == 0 {
		return "recursive-doubling"
	}
	return pats[r.Intn(len(pats))]
}

// csrGraph draws a connected weighted graph on n vertices: a ring plus
// random chords, both directions listed.
func csrGraph(r *rand.Rand, n int) *service.GraphSpec {
	adj := make([]map[int]int64, n)
	for i := range adj {
		adj[i] = map[int]int64{}
	}
	add := func(u, v int, w int64) {
		if u == v {
			return
		}
		adj[u][v] += w
		adj[v][u] += w
	}
	for u := 0; u < n; u++ {
		add(u, (u+1)%n, 1+int64(r.Intn(8)))
	}
	for k := 0; k < n; k++ {
		add(r.Intn(n), r.Intn(n), 1+int64(r.Intn(8)))
	}
	g := &service.GraphSpec{N: n, XAdj: make([]int, n+1)}
	for u := 0; u < n; u++ {
		nbrs := make([]int, 0, len(adj[u]))
		for v := range adj[u] {
			nbrs = append(nbrs, v)
		}
		sort.Ints(nbrs)
		for _, v := range nbrs {
			g.Adjncy = append(g.Adjncy, v)
			g.Weights = append(g.Weights, adj[u][v])
		}
		g.XAdj[u+1] = len(g.Adjncy)
	}
	return g
}

// coldGen yields the mapd-cold stream: every mapping it asks for has a key
// no earlier request in the stream used, so each one misses the result
// cache and the store. The stream is stratified: each block of coldBlock
// requests fills every slot of coldTemplate once, in an order the seed
// shuffles, so every seed runs the same mix of shapes, patterns and
// heuristics and the seed varies only the draws within each slot.
type coldGen struct {
	r     *rand.Rand
	seen  map[string]bool
	block int
	slots []int // the current block's remaining template indices
}

// coldSlot is one request class of the stratified block.
type coldSlot struct {
	class   string // gpc, fattree, torus, graph or batch
	pattern string
	auto    bool // "auto" race rather than one explicit heuristic
	stratum int  // GPC: which sixth of the 512-4096 process range
}

// coldTemplate is one block: about a third each of GPC, fat-tree and torus
// requests, one explicit CSR graph and one batch; three quarters "auto".
var coldTemplate = []coldSlot{
	{class: "gpc", pattern: "recursive-doubling", auto: true},
	{class: "gpc", pattern: "ring", auto: true, stratum: 0},
	{class: "gpc", pattern: "ring", auto: false, stratum: 3},
	{class: "gpc", pattern: "binomial-broadcast", auto: true, stratum: 1},
	{class: "gpc", pattern: "binomial-broadcast", auto: true, stratum: 4},
	{class: "gpc", pattern: "binomial-gather", auto: false, stratum: 2},
	{class: "gpc", pattern: "binomial-gather", auto: true, stratum: 5},
	{class: "fattree", pattern: "ring", auto: true},
	{class: "fattree", pattern: "ring", auto: false},
	{class: "fattree", pattern: "binomial-broadcast", auto: true},
	{class: "fattree", pattern: "binomial-broadcast", auto: true},
	{class: "fattree", pattern: "binomial-gather", auto: true},
	{class: "fattree", pattern: "binomial-gather", auto: false},
	{class: "fattree", pattern: "recursive-doubling", auto: true},
	{class: "fattree", pattern: "recursive-doubling", auto: true},
	{class: "torus", pattern: "ring", auto: true},
	{class: "torus", pattern: "ring", auto: true},
	{class: "torus", pattern: "ring", auto: false},
	{class: "torus", pattern: "binomial-broadcast", auto: true},
	{class: "torus", pattern: "binomial-broadcast", auto: false},
	{class: "torus", pattern: "alltoall", auto: true},
	{class: "torus", pattern: "alltoall", auto: true},
	{class: "graph"},
	{class: "batch"},
}

// gpcDoublingProcs cycles the GPC recursive-doubling slot over the powers
// of two. 2048 and 4096 ranks are the costliest requests of the mix; at one
// block in sixteen each they stay clearly below the 1% the p99 tail sits
// at, so the tail lies inside a broad class instead of on their boundary.
var gpcDoublingProcs = []int{512, 1024, 512, 1024, 512, 1024, 512, 1024, 512, 1024, 512, 1024, 512, 1024, 2048, 4096}

func newColdGen(seed int64) *coldGen {
	return &coldGen{r: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// claim marks req's key used; false when an earlier request had it.
func (g *coldGen) claim(req *service.Request) bool {
	k := keyOf(req)
	if g.seen[k] {
		return false
	}
	g.seen[k] = true
	return true
}

func (g *coldGen) next() mapdReq {
	if len(g.slots) == 0 {
		g.slots = g.r.Perm(len(coldTemplate))
		g.block++
	}
	idx := g.slots[0]
	g.slots = g.slots[1:]
	slot := coldTemplate[idx]
	// Layouts rotate over the template's slots from block to block, so every
	// slot sees all four equally often.
	layout := layoutNames[(idx+g.block)%len(layoutNames)]
	for {
		switch slot.class {
		case "batch":
			if b := g.batch(); b != nil {
				return newBatch(b)
			}
		case "graph":
			if req := g.graphRequest(layout); g.claim(req) {
				return newSingle(req)
			}
		default:
			if req := g.namedRequest(slot, layout); g.claim(req) {
				return newSingle(req)
			}
		}
	}
}

// namedRequest draws the variable parts of a named-pattern slot: topology
// shape, process count, explicit heuristic and sizes.
func (g *coldGen) namedRequest(slot coldSlot, layout string) *service.Request {
	r := g.r
	req := &service.Request{Layout: layout, Pattern: service.PatternSpec{Name: slot.pattern}, Sizes: osuSizes(r)}
	req.Heuristic = "auto"
	if !slot.auto {
		req.Heuristic = oracleHeurs[r.Intn(len(oracleHeurs))]
	}
	switch slot.class {
	case "gpc":
		req.Topology = service.TopologySpec{Preset: "gpc"}
		if slot.pattern == "recursive-doubling" {
			req.Procs = gpcDoublingProcs[g.block%len(gpcDoublingProcs)]
		} else {
			// Any multiple of 8 from 512 to 4096, drawn within the slot's
			// sixth of that range.
			lo, hi := 64+slot.stratum*449/6, 64+(slot.stratum+1)*449/6
			req.Procs = 8 * (lo + r.Intn(hi-lo))
		}
	case "fattree":
		req.Topology = fatTreeSpec(r, 1024)
		req.Procs = procsFor(r, totalCores(req.Topology))
		if slot.pattern == "recursive-doubling" {
			req.Procs = 1 << (bits.Len(uint(req.Procs)) - 1)
		}
	default:
		req.Topology = torusSpec(r, 256)
		req.Procs = procsFor(r, totalCores(req.Topology))
	}
	return req
}

// graphRequest draws an explicit CSR-graph request with at most 256
// vertices on a fat tree or torus, mapped by the "auto" race (which adds the
// general-purpose mapper) or by it alone in alternate blocks.
func (g *coldGen) graphRequest(layout string) *service.Request {
	r := g.r
	var spec service.TopologySpec
	if r.Intn(2) == 0 {
		spec = fatTreeSpec(r, 256)
	} else {
		spec = torusSpec(r, 256)
	}
	n := procsFor(r, totalCores(spec))
	h := "auto"
	if g.block%2 == 0 {
		h = "scotch"
	}
	return &service.Request{
		Topology:  spec,
		Procs:     n,
		Layout:    layout,
		Pattern:   service.PatternSpec{Graph: csrGraph(r, n)},
		Heuristic: h,
	}
}

// batch draws a 2-4 pattern batch on one fat tree or torus; the cap keeps a
// cold batch under the shedding threshold of a two-worker pool.
func (g *coldGen) batch() *service.BatchRequest {
	r := g.r
	var spec service.TopologySpec
	pats := flatPatterns
	if r.Intn(2) == 0 {
		spec = fatTreeSpec(r, 512)
	} else {
		spec = torusSpec(r, 256)
		pats = torusPatterns
	}
	b := &service.BatchRequest{Topology: spec, Procs: procsFor(r, totalCores(spec)), Layout: layoutNames[r.Intn(4)]}
	n := 2 + r.Intn(3)
	for tries := 0; len(b.Patterns) < n && tries < 20; tries++ {
		p := service.BatchPattern{Name: patternFor(r, pats, b.Procs), Heuristic: heuristicFor(r, 0.5), Sizes: osuSizes(r)}
		req := &service.Request{Topology: spec, Procs: b.Procs, Layout: b.Layout, Pattern: service.PatternSpec{Name: p.Name}, Heuristic: p.Heuristic, Sizes: p.Sizes}
		if g.claim(req) {
			b.Patterns = append(b.Patterns, p)
		}
	}
	if len(b.Patterns) < 2 {
		return nil
	}
	return b
}

// streamDigest hashes the first n bodies of a stream: the seed self-test
// compares digests across generations and seeds.
func streamDigest(next func() mapdReq, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		h.Write(next().Body)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
