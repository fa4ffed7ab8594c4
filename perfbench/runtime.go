package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/synth"
)

// The runtime-mix world: the 64-rank two-level fat tree (8 nodes x 2
// sockets x 4 cores) that `cmd/synth -topo fattree` searches, with the
// initial cyclic-bunch layout.
const (
	rtRanks     = 64
	rtLayout    = "cyclic-bunch"
	rtTablePath = "internal/synth/testdata/table_fattree64.golden.json"
	rtSLO       = 100 * time.Millisecond // per-call limit of max_rate_at_slo_rps
	rtBlockLen  = 400                    // calls per stratified block of the mix
)

var rtTopology = service.TopologySpec{
	Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4,
	Network: &service.NetworkSpec{Kind: "fattree", Leaves: 2, NodesPerLeaf: 4, Uplinks: 2},
}

// rtOp is one op class of the mix.
type rtOp struct {
	name   string
	weight int // calls per stratified block
	bytes  int // per-rank payload: block, buffer or per-pair size
	root   int // rooted ops; -1 otherwise
	// goodput is the useful payload one call delivers: bytes that end up at
	// a rank that did not hold them.
	goodput int
}

const kib = 1024

// rtOps is the mix. The two heavy classes (64 KiB allgather, all-to-all)
// together stay below half a percent of the calls, so the p99 tail lies
// inside the allreduce class instead of on the boundary of a rare one.
var rtOps = []rtOp{
	{name: "allgather_1k", weight: 80, bytes: kib, root: -1, goodput: rtRanks * (rtRanks - 1) * kib},
	{name: "allgather_2k", weight: 72, bytes: 2 * kib, root: -1, goodput: rtRanks * (rtRanks - 1) * 2 * kib},
	{name: "allgather_64k", weight: 1, bytes: 64 * kib, root: -1, goodput: rtRanks * (rtRanks - 1) * 64 * kib},
	{name: "reordered_allgather_1k", weight: 68, bytes: kib, root: -1, goodput: rtRanks * (rtRanks - 1) * kib},
	{name: "allreduce_64k", weight: 48, bytes: 64 * kib, root: -1, goodput: rtRanks * 64 * kib},
	{name: "alltoall_1k", weight: 1, bytes: kib, root: -1, goodput: rtRanks * (rtRanks - 1) * kib},
	{name: "bcast_64k_root0", weight: 45, bytes: 64 * kib, root: 0, goodput: (rtRanks - 1) * 64 * kib},
	{name: "bcast_64k_offroot", weight: 43, bytes: 64 * kib, root: 37, goodput: (rtRanks - 1) * 64 * kib},
	{name: "gather_1k_offroot", weight: 42, bytes: kib, root: 21, goodput: (rtRanks - 1) * kib},
}

// mixSequence returns call k's op index. The mix is stratified: each block
// of rtBlockLen calls holds every op class exactly weight times, in an
// order the seed shuffles, so every seed runs the same proportions.
type mixSequence struct {
	seed  int64
	base  []int
	block int
	order []int
}

func newMixSequence(seed int64) *mixSequence {
	s := &mixSequence{seed: seed, block: -1}
	for i, op := range rtOps {
		for j := 0; j < op.weight; j++ {
			s.base = append(s.base, i)
		}
	}
	if len(s.base) != rtBlockLen {
		panic(fmt.Sprintf("mix weights sum to %d, want %d", len(s.base), rtBlockLen))
	}
	return s
}

func (s *mixSequence) at(k int) int {
	if b := k / rtBlockLen; b != s.block {
		s.block = b
		r := rand.New(rand.NewSource(s.seed*1000003 + int64(b)))
		s.order = append(s.order[:0], s.base...)
		r.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	return s.order[k%rtBlockLen]
}

// fillBlock writes block id's content for call k: 64-bit words counting up
// from a (call, block) hash, so a misplaced, stale or torn block never
// matches.
func fillBlock(dst []byte, k, id int) {
	w := uint64(k)*0x9e3779b97f4a7c15 ^ uint64(id+1)*0xbf58476d1ce4e5b9
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], w)
		w++
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(w >> (8 * (i & 7)))
	}
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// rtSetup is the state set-up builds before the world starts: the table
// selector, the mapping and its modelled improvement.
type rtSetup struct {
	selector    *synth.Selector
	mapping     core.Mapping
	mode        sched.OrderMode
	improvement float64
	request     *service.Request
}

// prepareRuntime loads the synth table (checking it was searched on this
// machine model) and maps the world through an in-process Service.Compute.
func prepareRuntime(o *opts) (*rtSetup, error) {
	table, err := synth.LoadFile(filepath.Join(o.root, rtTablePath))
	if err != nil {
		return nil, err
	}
	cluster, err := clusterOf(&rtTopology)
	if err != nil {
		return nil, err
	}
	machine, err := simnet.NewMachine(cluster, simnet.DefaultParams())
	if err != nil {
		return nil, err
	}
	if got := synth.TopologyKey(machine); got != table.Topology {
		return nil, fmt.Errorf("synth table searched on topology %s, world is %s", table.Topology, got)
	}
	req := &service.Request{
		Topology: rtTopology, Procs: rtRanks, Layout: rtLayout,
		Pattern:   service.PatternSpec{Name: "recursive-doubling"},
		Heuristic: "auto",
		Sizes:     []int{kib, 2 * kib, 64 * kib},
	}
	svc := service.New(service.Config{})
	defer svc.Close()
	resp, err := svc.Compute(context.Background(), req)
	if err != nil {
		return nil, err
	}
	if resp.Degraded {
		return nil, fmt.Errorf("mapping request degraded")
	}
	if err := checkMapping(resp.Mapping, rtRanks); err != nil {
		return nil, err
	}
	var quality improvementSum
	quality.add(resp)
	mode := sched.InitComm
	if resp.Order == "endShfl" {
		mode = sched.EndShuffle
	}
	return &rtSetup{
		selector: synth.NewSelector(table), mapping: core.Mapping(resp.Mapping), mode: mode,
		improvement: quality.pct(), request: req,
	}, nil
}

// rankState is one rank's communicators and buffers.
type rankState struct {
	c    *mpi.Comm
	re   *collective.Reordered
	send map[string][]byte
	recv map[string][]byte
}

// shared is the world-wide run state. Ranks write only their own slots.
type shared struct {
	stopAt   atomic.Int64 // first call index no rank runs; set once
	failures atomic.Int64
	firstErr atomic.Pointer[string]
	expected [2][]byte // double-buffered expected output, built by rank 0
	times    [][][2]int64
	ops      []int           // op index per call, written by rank 0
	cycles   []time.Duration // traced runs: rank 0's time per call with its span recorded
	origin   time.Time
}

func (sh *shared) fail(format string, args ...any) {
	sh.failures.Add(1)
	msg := fmt.Sprintf(format, args...)
	sh.firstErr.CompareAndSwap(nil, &msg)
}

// startWorld spawns the world, installs the table selector and builds the
// reordered communicator on every rank, then runs body per rank. ready runs
// once every rank is set up.
func startWorld(st *rtSetup, ready func(), body func(rs *rankState) error) error {
	var once sync.Once
	return mpi.Run(rtRanks, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			collective.Configure(c, collective.Config{Synth: st.selector})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		re, err := collective.NewReordered(c, st.mapping, st.mode)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		once.Do(ready)
		if body == nil {
			return nil
		}
		rs := &rankState{c: c, re: re, send: map[string][]byte{}, recv: map[string][]byte{}}
		for _, op := range rtOps {
			in, out := op.bytes, op.bytes*rtRanks
			switch {
			case op.name == "allreduce_64k" || op.name[:5] == "bcast":
				in, out = 0, op.bytes
			case op.name == "alltoall_1k":
				in = op.bytes * rtRanks
			}
			if in > 0 {
				rs.send[op.name] = make([]byte, in)
			}
			if out <= heavyOutput {
				rs.recv[op.name] = make([]byte, out)
			}
		}
		return body(rs)
	}, mpi.WithTimeout(150*time.Second))
}

func setupRuntimeProbe(o *opts) (func(), error) {
	st, err := prepareRuntime(o)
	if err != nil {
		return nil, err
	}
	if err := startWorld(st, func() {}, nil); err != nil {
		return nil, err
	}
	return func() {}, nil
}

// prepareExpected builds call k's shared expected output (rank 0, before the
// call's barrier) for the ops whose result is the same on every rank.
func prepareExpected(op *rtOp, k int, buf []byte) []byte {
	switch op.name {
	case "allreduce_64k":
		buf = buf[:op.bytes]
		clear(buf)
		tmp := make([]byte, op.bytes)
		for r := 0; r < rtRanks; r++ {
			fillBlock(tmp, k, r)
			xorInto(buf, tmp)
		}
	case "bcast_64k_root0", "bcast_64k_offroot":
		buf = buf[:op.bytes]
		fillBlock(buf, k, op.root)
	case "alltoall_1k":
		return nil // per-rank: checked block by block
	default: // allgathers and gather: block r from rank r
		buf = buf[:op.bytes*rtRanks]
		for r := 0; r < rtRanks; r++ {
			fillBlock(buf[r*op.bytes:(r+1)*op.bytes], k, r)
		}
	}
	return buf
}

// heavyOutput is the output size above which a rank allocates the buffer
// for each call and drops it after the check: the 64 KiB allgather's 4 MiB
// per rank would otherwise keep 256 MiB live for a class that runs once in
// a block.
const heavyOutput = 1 << 20

// prepareInput fills rank me's input for call k and clears its output.
func prepareInput(rs *rankState, op *rtOp, k int) {
	me := rs.c.Rank()
	if rs.recv[op.name] == nil {
		rs.recv[op.name] = make([]byte, op.bytes*rtRanks)
	}
	send, recv := rs.send[op.name], rs.recv[op.name]
	clear(recv)
	switch op.name {
	case "allreduce_64k":
		fillBlock(recv, k, me)
	case "bcast_64k_root0", "bcast_64k_offroot":
		if me == op.root {
			fillBlock(recv, k, me)
		}
	case "alltoall_1k":
		for d := 0; d < rtRanks; d++ {
			fillBlock(send[d*op.bytes:(d+1)*op.bytes], k, me*rtRanks+d)
		}
	default:
		fillBlock(send, k, me)
	}
}

// callOp runs one front-door call, as the repro facade makes it.
func callOp(rs *rankState, op *rtOp) error {
	send, recv := rs.send[op.name], rs.recv[op.name]
	switch op.name {
	case "allgather_1k", "allgather_2k", "allgather_64k":
		return collective.Allgather(rs.c, send, recv, collective.AlgAuto)
	case "reordered_allgather_1k":
		return rs.re.Allgather(send, recv, collective.AlgAuto)
	case "allreduce_64k":
		return collective.Allreduce(rs.c, recv, xorInto)
	case "alltoall_1k":
		return collective.Alltoall(rs.c, send, recv)
	case "bcast_64k_root0", "bcast_64k_offroot":
		return collective.Broadcast(rs.c, op.root, recv)
	case "gather_1k_offroot":
		return collective.Gather(rs.c, op.root, send, recv)
	}
	return fmt.Errorf("unknown op %s", op.name)
}

// checkOutput byte-checks rank me's output of call k.
func checkOutput(rs *rankState, op *rtOp, k int, expected []byte) bool {
	me := rs.c.Rank()
	recv := rs.recv[op.name]
	switch op.name {
	case "alltoall_1k":
		want := make([]byte, op.bytes)
		for s := 0; s < rtRanks; s++ {
			fillBlock(want, k, s*rtRanks+me)
			if !bytes.Equal(recv[s*op.bytes:(s+1)*op.bytes], want) {
				return false
			}
		}
		return true
	case "gather_1k_offroot":
		if me != op.root {
			return true
		}
	}
	return bytes.Equal(recv, expected)
}

// mixRun is the outcome of one pass of the mix on a live world.
type mixRun struct {
	calls int
	lat   []float64 // per call: slowest rank's time from its barrier exit, ms
	ops   []int
}

// runMix runs the seeded mix on every rank until the first block boundary
// after the deadline. Each call starts at a shared barrier exit; outputs
// are checked after the timed span, and rank 0 prepares the next call's
// expected output while the other ranks check theirs. With a tracer, rank 0
// records the span of every call whose index has the given parity, and
// times each call up to its span's recording.
func runMix(rs *rankState, sh *shared, seed int64, deadline time.Time, tr *tracer, parity int) error {
	me := rs.c.Rank()
	seq := newMixSequence(seed) // per rank: the sequence memoises its block
	var expBuf [2][]byte
	if me == 0 {
		expBuf = [2][]byte{make([]byte, 64*kib*rtRanks), make([]byte, 64*kib*rtRanks)}
	}
	for k := 0; ; k++ {
		if me == 0 {
			// Stop only between stratified blocks, so every run measures
			// whole blocks of the same mix.
			if k%rtBlockLen == 0 && time.Now().After(deadline) {
				sh.stopAt.CompareAndSwap(math.MaxInt64, int64(k))
			} else {
				sh.ops = append(sh.ops, seq.at(k))
				op := &rtOps[sh.ops[k]]
				sh.expected[k%2] = prepareExpected(op, k, expBuf[k%2])
			}
		}
		if err := rs.c.Barrier(); err != nil {
			return err
		}
		if int64(k) >= sh.stopAt.Load() {
			return nil
		}
		op := &rtOps[seq.at(k)]
		prepareInput(rs, op, k)
		if err := rs.c.Barrier(); err != nil {
			return err
		}
		t0 := time.Since(sh.origin)
		err := callOp(rs, op)
		t1 := time.Since(sh.origin)
		if err != nil {
			return fmt.Errorf("call %d (%s): %w", k, op.name, err)
		}
		sh.times[me] = append(sh.times[me], [2]int64{int64(t0), int64(t1)})
		if tr != nil && me == 0 {
			if k%2 == parity {
				tr.add("collective."+op.name, 0, int64(k), sh.origin.Add(t0), sh.origin.Add(t1))
			}
			sh.cycles = append(sh.cycles, time.Since(sh.origin)-t0)
		}
		if !checkOutput(rs, op, k, sh.expected[k%2]) {
			sh.fail("call %d (%s): rank %d output differs from the expected result", k, op.name, me)
		}
		if len(rs.recv[op.name]) > heavyOutput {
			rs.recv[op.name] = nil
		}
	}
}

// collect folds the per-rank timestamps into per-call latencies.
func (sh *shared) collect() *mixRun {
	n := len(sh.times[0])
	mr := &mixRun{calls: n, ops: sh.ops[:n]}
	for k := 0; k < n; k++ {
		var slowest int64
		for r := range sh.times {
			t := sh.times[r][k]
			slowest = max(slowest, t[1]-t[0])
		}
		mr.lat = append(mr.lat, float64(slowest)/1e6)
	}
	return mr
}

func newShared() *shared {
	sh := &shared{origin: time.Now(), times: make([][][2]int64, rtRanks)}
	sh.stopAt.Store(math.MaxInt64)
	return sh
}

// runRuntime is runtime-mix: the seeded front-door mix on one persistent
// 64-rank world.
func runRuntime(o *opts, res *result) error {
	st, err := prepareRuntime(o)
	if err != nil {
		return err
	}
	if o.trace {
		return traceRuntime(o, res, st)
	}
	sh := newShared()
	var start time.Time
	err = startWorld(st, func() {}, func(rs *rankState) error {
		if rs.c.Rank() == 0 {
			start = time.Now()
		}
		return runMix(rs, sh, o.seed, time.Now().Add(time.Duration(o.seconds*float64(time.Second))), nil, 0)
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	mr := sh.collect()
	reportMix(res, sh, mr, elapsed)
	res.set("improvement_pct", st.improvement, "%")
	return nil
}

// reportMix sets the runtime-mix end-to-end metrics from one mix pass.
func reportMix(res *result, sh *shared, mr *mixRun, elapsed float64) {
	res.Attempted += int64(mr.calls)
	if f := sh.failures.Load(); f > 0 {
		res.Failed += f
		res.Correct = false
		res.notef("FAILED CHECK: %d rank outputs wrong; first: %s", f, *sh.firstErr.Load())
	}
	var goodput float64
	inSLO := 0
	for k, op := range mr.ops {
		goodput += float64(rtOps[op].goodput)
		if mr.lat[k] <= ms(rtSLO) {
			inSLO++
		}
	}
	lat := append([]float64(nil), mr.lat...)
	setTail(res, lat)
	res.set("latency_p50_ms", median(lat), "ms")
	res.set("throughput_ops_s", float64(mr.calls)/elapsed, "1/s")
	res.set("max_rate_at_slo_rps", float64(inSLO)/elapsed, "1/s")
	res.set("goodput_mb_s", goodput/elapsed/1e6, "MB/s")
	res.notef("%d collective calls in %.2fs", mr.calls, elapsed)
}
