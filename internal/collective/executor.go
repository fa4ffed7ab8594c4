// The generic schedule executor: runs any compiled sched.Program on an
// mpi.Comm, stage by stage. This is the convergence point of the Schedule-IR
// refactor — the same compiled program that simnet prices is what moves real
// bytes here, so the cost model and the runtime cannot drift apart.
//
// Execution model: every rank walks its precompiled linear step stream
// (sched.Program.RankSteps). Within an expanded stage a rank performs all of
// its sends before its receives; the runtime's Send is asynchronous and
// buffered, so sends never block and the stage cannot deadlock regardless of
// the schedule's communication structure. Each expanded stage uses its own
// tag, and both sender and receiver process a stage's ops in ascending op
// order, so the runtime's FIFO (src, tag) matching pairs messages
// consistently even when one pair of ranks exchanges several messages in
// one stage.
package collective

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sched"
)

// tag base for the schedule executor; the expanded stage index is added.
const tagSchedule = 9 << 20

// scheduleProgram resolves a flat allgather algorithm to its cached compiled
// program through the family registry: Algorithm.String() is exactly the
// registered builder name, so the lookup is keyed by recipe and a warm call
// builds, hashes and allocates nothing.
func scheduleProgram(alg Algorithm, p int) (*sched.Program, error) {
	if alg == AlgAuto {
		return nil, fmt.Errorf("collective: no schedule for algorithm %v", alg)
	}
	fam, err := sched.FamilyAllgather.Desc()
	if err != nil {
		return nil, err
	}
	return fam.BuildCached(alg.String(), p)
}

// execMetrics bundles the resolved per-algorithm metric handles of the
// schedule executor. Resolving a labeled series (CounterVec.With) takes a
// lock and allocates; executeProgram runs per rank per collective, so the
// handles are resolved once per program name and cached.
type execMetrics struct {
	executions   *metrics.Counter
	transfers    *metrics.Counter
	bytes        *metrics.Counter
	stageSeconds *metrics.Histogram
	// sampleTick counts the sample rank's executions of this program for
	// Tuning.StageSampleEvery rate division.
	sampleTick atomic.Uint64
}

var execMetricsCache sync.Map // program name -> *execMetrics

// execMetricsFor returns the cached handle bundle for a program name.
func execMetricsFor(name string) *execMetrics {
	if em, ok := execMetricsCache.Load(name); ok {
		return em.(*execMetrics)
	}
	em := &execMetrics{
		executions:   scheduleExecutions.With("algorithm", name),
		transfers:    scheduleTransfers.With("algorithm", name),
		bytes:        scheduleBytes.With("algorithm", name),
		stageSeconds: scheduleStageSeconds.With("algorithm", name),
	}
	actual, _ := execMetricsCache.LoadOrStore(name, em)
	return actual.(*execMetrics)
}

// placeOffsets holds a pooled placement-resolved offset table: off[b] is the
// buffer byte offset of block b under the call's Placement.
var placeOffsetsPool = sync.Pool{New: func() any { return new([]int) }}

// resolvePlaceOffsets builds the per-block byte offsets for a non-nil
// placement from pooled storage; the caller returns it with freePlaceOffsets.
func resolvePlaceOffsets(place Placement, blocks, blk int) []int {
	op := placeOffsetsPool.Get().(*[]int)
	off := *op
	if cap(off) < blocks {
		off = make([]int, blocks)
	}
	off = off[:blocks]
	*op = nil
	placeOffsetsPool.Put(op)
	for b := 0; b < blocks; b++ {
		off[b] = place(b) * blk
	}
	return off
}

func freePlaceOffsets(off []int) {
	op := placeOffsetsPool.Get().(*[]int)
	*op = off[:0]
	placeOffsetsPool.Put(op)
}

// executeProgram runs the main stages of prog on c over buf, a
// prog.Blocks-block buffer with blk bytes per block. place relocates block
// identifiers to buffer positions (allgather programs whose block space is
// the rank space; nil is the identity). op combines delivered blocks on
// Reduce stages and must be non-nil when the program has any.
//
// The step loop is allocation-free in steady state: block byte offsets are
// precomputed per (program, blk) — or per call into pooled storage when a
// Placement is active — outgoing payloads are staged straight into pooled
// buffers lent to the runtime via SendOwned (one copy instead of the old
// stage-then-copy two), consumed receive payloads are recycled with
// FreeBuf, metric handles are resolved once per program name, and trace
// labels are only built when a tracer is installed.
func executeProgram(c *mpi.Comm, prog *sched.Program, buf []byte, blk int, place Placement, op ReduceOp) error {
	if prog.P != c.Size() {
		return fmt.Errorf("collective: program %q is compiled for %d ranks, communicator has %d",
			prog.Name, prog.P, c.Size())
	}
	if err := prog.EnsureExecutable(); err != nil {
		return err
	}
	em := execMetricsFor(prog.Name)
	em.executions.Inc()

	me := c.Rank()
	steps := prog.RankSteps(me)
	stages := prog.ExecStages()
	ops := prog.Ops()
	// offs[i] is the buffer byte offset of blockIdx entry i under the
	// identity placement; placeOff[b] the offset of block b under place.
	offs := prog.BlockOffsets(blk)
	var placeOff []int
	if place != nil {
		placeOff = resolvePlaceOffsets(place, prog.Blocks, blk)
		defer freePlaceOffsets(placeOff)
	}
	// Stage timing is sampled on one rank only: a stage's duration is a
	// collective property, and every rank clocking it would both multiply
	// the histogram's count by p and put two time syscalls plus an Observe
	// on each rank's critical path. The sample rank (default 0) and rate
	// (default every execution) come from the world's Tuning, so the flight
	// recorder can be pointed at a straggler rank. Send counters accumulate
	// in locals and flush once per execution — per-message atomic adds on
	// shared counters ping-pong cache lines across the communicator's ranks.
	cfg := configOf(c)
	sampleRank := cfg.Tuning.StageSampleRank % c.Size()
	if sampleRank < 0 {
		sampleRank += c.Size()
	}
	timed := me == sampleRank
	if timed && cfg.Tuning.StageSampleEvery > 1 {
		timed = em.sampleTick.Add(1)%uint64(cfg.Tuning.StageSampleEvery) == 0
	}
	// prof accumulates the sampled execution's flight-recorder profile on
	// the stack; stage times bin by pricing-view index so they line up with
	// simnet.Breakdown. Recording is a by-value copy into the ring — the
	// profile never escapes and the steady state stays allocation-free.
	var prof obs.Profile
	var priceMap []int32
	if timed {
		priceMap = prog.PriceStageMap()
		prof = obs.Profile{
			Program:    prog.Name,
			P:          int32(prog.P),
			Blocks:     int32(prog.Blocks),
			BlockBytes: int32(blk),
			Rank:       int32(me),
			UnixNanos:  time.Now().UnixNano(),
			Stages:     int32(len(prog.Stages)),
		}
	}
	var sent, sentBytes uint64
	cur := int32(-1)
	var stageStart time.Time
	for i := range steps {
		stp := &steps[i]
		if stp.Stage != cur {
			if timed {
				if cur >= 0 {
					d := time.Since(stageStart).Seconds()
					em.stageSeconds.Observe(d)
					prof.AddStage(int(priceMap[cur]), d)
				}
				stageStart = time.Now()
			}
			cur = stp.Stage
			if c.Tracing() {
				c.TracePoint(fmt.Sprintf("sched %s stage %d", prog.Name, stp.Stage))
			}
		}
		o := &ops[stp.Op]
		tag := tagSchedule + int(stp.Stage)
		if stp.Send {
			n := o.NumBlk * blk
			out := mpi.GetBuf(n)
			w := 0
			if place == nil {
				for _, off := range offs[o.Blk0 : o.Blk0+o.NumBlk] {
					copy(out[w:w+blk], buf[off:off+blk])
					w += blk
				}
			} else {
				for _, b := range prog.OpBlocks(*o) {
					off := placeOff[b]
					copy(out[w:w+blk], buf[off:off+blk])
					w += blk
				}
			}
			if err := c.SendOwned(int(o.Dst), tag, out); err != nil {
				return err
			}
			sent++
			sentBytes += uint64(n)
			continue
		}
		in, err := c.Recv(int(o.Src), tag)
		if err != nil {
			return err
		}
		if len(in) != o.NumBlk*blk {
			return fmt.Errorf("collective: schedule %q stage %d: received %d bytes, want %d",
				prog.Name, stp.Stage, len(in), o.NumBlk*blk)
		}
		if stages[stp.Stage].Reduce {
			if op == nil {
				return fmt.Errorf("collective: schedule %q has reduce stages but no reduce operator", prog.Name)
			}
			if place == nil {
				for k, off := range offs[o.Blk0 : o.Blk0+o.NumBlk] {
					op(buf[off:off+blk], in[k*blk:(k+1)*blk])
				}
			} else {
				for k, b := range prog.OpBlocks(*o) {
					off := placeOff[b]
					op(buf[off:off+blk], in[k*blk:(k+1)*blk])
				}
			}
		} else {
			if place == nil {
				for k, off := range offs[o.Blk0 : o.Blk0+o.NumBlk] {
					copy(buf[off:off+blk], in[k*blk:(k+1)*blk])
				}
			} else {
				for k, b := range prog.OpBlocks(*o) {
					off := placeOff[b]
					copy(buf[off:off+blk], in[k*blk:(k+1)*blk])
				}
			}
		}
		// The payload has been fully copied or reduced into buf; recycle
		// it. This rank is the buffer's sole owner: the runtime handed it
		// over at Recv and retains no alias.
		mpi.FreeBuf(in)
	}
	if timed && cur >= 0 {
		d := time.Since(stageStart).Seconds()
		em.stageSeconds.Observe(d)
		prof.AddStage(int(priceMap[cur]), d)
	}
	if sent > 0 {
		em.transfers.Add(sent)
		em.bytes.Add(sentBytes)
	}
	if timed {
		prof.Transfers = int64(sent)
		prof.Bytes = int64(sentBytes)
		rec := cfg.Flight
		if rec == nil {
			rec = obs.Flight
		}
		rec.Record(prof)
		if cfg.Calibrator != nil {
			cfg.Calibrator.ObserveExecution(prog, prof)
		}
	}
	return nil
}

// ExecuteAllgather runs a compiled allgather program: rank r contributes
// send and recv ends with every rank's block. place relocates contributors'
// blocks in the output (see Placement).
func ExecuteAllgather(c *mpi.Comm, prog *sched.Program, send, recv []byte, place Placement) error {
	blk, err := checkAllgatherArgs(c, send, recv)
	if err != nil {
		return err
	}
	if prog.Init != sched.InitOwn || prog.Blocks != prog.P {
		return fmt.Errorf("collective: program %q is not an allgather program", prog.Name)
	}
	copy(recv[position(place, c.Rank())*blk:], send)
	return executeProgram(c, prog, recv, blk, place, nil)
}

// ExecuteAllreduce runs a compiled reduction program (InitAll) over buf,
// combined in place on every rank with op.
func ExecuteAllreduce(c *mpi.Comm, prog *sched.Program, buf []byte, op ReduceOp) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	if prog.Init != sched.InitAll {
		return fmt.Errorf("collective: program %q is not a reduction program", prog.Name)
	}
	if len(buf)%prog.Blocks != 0 {
		return fmt.Errorf("collective: allreduce buffer of %d bytes does not divide into %d blocks",
			len(buf), prog.Blocks)
	}
	return executeProgram(c, prog, buf, len(buf)/prog.Blocks, nil, op)
}

// ExecuteBroadcast runs a compiled broadcast program (InitRoot): the root's
// data buffer reaches every rank. All ranks pass a buffer of equal size,
// divisible into the program's block count; only the root's content matters
// on entry.
func ExecuteBroadcast(c *mpi.Comm, prog *sched.Program, data []byte) error {
	if prog.Init != sched.InitRoot {
		return fmt.Errorf("collective: program %q is not a broadcast program", prog.Name)
	}
	if len(data) == 0 || len(data)%prog.Blocks != 0 {
		return fmt.Errorf("collective: broadcast buffer of %d bytes does not divide into %d blocks",
			len(data), prog.Blocks)
	}
	return executeProgram(c, prog, data, len(data)/prog.Blocks, nil, nil)
}

// ExecuteScatter runs a compiled scatter program: the root's data (one block
// per rank) is distributed so that rank r ends with block r in out. data is
// read on the root only.
func ExecuteScatter(c *mpi.Comm, prog *sched.Program, data, out []byte) error {
	if prog.Init != sched.InitRoot {
		return fmt.Errorf("collective: program %q is not a root-seeded program", prog.Name)
	}
	blk := len(out)
	if blk == 0 {
		return fmt.Errorf("collective: empty scatter output buffer")
	}
	n := prog.Blocks * blk
	if c.Rank() == prog.Root && len(data) != n {
		return fmt.Errorf("collective: scatter root data is %d bytes, want %d", len(data), n)
	}
	// Pooled staging: the executor sends only blocks a rank possesses, so
	// the pool's stale bytes never leave the rank.
	buf := mpi.GetBuf(n)
	defer mpi.FreeBuf(buf)
	if c.Rank() == prog.Root {
		copy(buf, data)
	}
	if err := executeProgram(c, prog, buf, blk, nil, nil); err != nil {
		return err
	}
	copy(out, buf[c.Rank()*blk:(c.Rank()+1)*blk])
	return nil
}

// ExecuteGather runs a compiled gather program: every rank contributes send;
// on the root, recv (one block per rank) ends with all contributions in rank
// order. recv may be nil on non-roots.
func ExecuteGather(c *mpi.Comm, prog *sched.Program, root int, send, recv []byte) error {
	blk := len(send)
	if blk == 0 {
		return fmt.Errorf("collective: empty gather send buffer")
	}
	if prog.Init != sched.InitOwn || prog.Blocks != prog.P {
		return fmt.Errorf("collective: program %q is not a gather program", prog.Name)
	}
	if root != prog.Root {
		// A mismatched root would silently leave the caller's designated
		// root with an unfilled recv while the program delivers everything
		// to prog.Root; reject loudly instead.
		return fmt.Errorf("collective: gather root %d does not match program %q root %d",
			root, prog.Name, prog.Root)
	}
	buf := recv
	if c.Rank() == root {
		if len(recv) != prog.Blocks*blk {
			return fmt.Errorf("collective: gather recv buffer is %d bytes, want %d", len(recv), prog.Blocks*blk)
		}
	} else {
		// Pooled staging, as in ExecuteScatter.
		buf = mpi.GetBuf(prog.Blocks * blk)
		defer mpi.FreeBuf(buf)
	}
	copy(buf[c.Rank()*blk:], send)
	return executeProgram(c, prog, buf, blk, nil, nil)
}
