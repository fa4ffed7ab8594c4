// Sparse stage pricing: the one contention accounting behind every pricing
// entry point.
//
// The mapping heuristics price thousands of layouts and the experiment
// drivers price schedules up to p = 65536, so loads live in flat
// epoch-stamped slices indexed by dense resource ids — global core, global
// socket, interned network link — held in a priceScratch that one pricing
// call reuses across all stages and returns to a per-Machine pool. A counter
// whose stamp is not the current stage's epoch reads as zero, so starting a
// stage is one epoch increment and per-stage cost is O(transfers × route
// length) regardless of machine size.
//
// Routes are deterministic per (srcNode, dstNode) pair, so the scratch also
// caches each pair's interned link-id route: repeated stages (every ring
// repeat, every heuristic probe of the same machine) never re-route.
//
// stagePass is the only loop over a program's stages; every pricing entry
// point is a visitor of it. equivalence_test.go holds the map-based
// reference accounting and pins the visitors bit-identical to it.
package simnet

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/topology"
)

// epochCounts is a flat epoch-stamped counter array: load[i] is valid only
// when epoch[i] matches the scratch's current epoch, so resetting all
// counters is one epoch increment.
type epochCounts struct {
	load  []int32
	epoch []uint32
}

// grow ensures capacity for ids [0, n). Fresh entries carry epoch 0, which
// never matches a live epoch (see beginStage).
func (e *epochCounts) grow(n int) {
	if len(e.load) >= n {
		return
	}
	load := make([]int32, n)
	epoch := make([]uint32, n)
	copy(load, e.load)
	copy(epoch, e.epoch)
	e.load, e.epoch = load, epoch
}

// inc bumps counter i in epoch ep.
func (e *epochCounts) inc(i int, ep uint32) {
	if e.epoch[i] != ep {
		e.epoch[i] = ep
		e.load[i] = 1
		return
	}
	e.load[i]++
}

// get reads counter i in epoch ep; a stale stamp reads as zero.
func (e *epochCounts) get(i int, ep uint32) int32 {
	if e.epoch[i] != ep {
		return 0
	}
	return e.load[i]
}

// clearStamps invalidates every entry (used on epoch wraparound).
func (e *epochCounts) clearStamps() {
	for i := range e.epoch {
		e.epoch[i] = 0
	}
}

// priceScratch holds one pricing pass's sparse load accounting plus the
// machine-lifetime route and link-capacity caches. It is obtained from and
// returned to a per-Machine pool, so the caches warm up once per machine and
// steady-state pricing does not allocate.
type priceScratch struct {
	epoch uint32

	coreSend epochCounts // per global core: messages sent this stage
	coreRecv epochCounts // per global core: messages received this stage
	sockMem  epochCounts // per global socket: memory-bandwidth clients
	qpiOut   epochCounts // per sending side's global socket: QPI crossings

	// Link interning: linkID assigns each directed link a dense id on first
	// sight; linkCap memoizes the link's aggregate directional capacity
	// (CapNetPerCable × multiplicity) and linkLoad/linkEpoch are the link's
	// epoch-stamped stage load.
	linkID    map[topology.DirLink]int32
	linkCap   []float64
	linkLoad  []int32
	linkEpoch []uint32

	// routes caches each (srcNode, dstNode) pair's interned link-id route.
	routes   map[uint64][]int32
	routeBuf []topology.DirLink
}

// getScratch returns a pricing scratch sized for m's cluster, drawing from
// the machine's pool. Return it with m.scratch.Put when the pricing pass is
// done. Mutating a Machine's Cluster or Params while pricing runs is outside
// the contract (the cached routes and capacities would go stale with it).
func (m *Machine) getScratch() *priceScratch {
	sc, ok := m.scratch.Get().(*priceScratch)
	if !ok {
		sc = &priceScratch{
			linkID: make(map[topology.DirLink]int32),
			routes: make(map[uint64][]int32),
		}
	}
	cores := m.Cluster.TotalCores()
	sockets := m.Cluster.Nodes * m.Cluster.SocketsPerNode
	sc.coreSend.grow(cores)
	sc.coreRecv.grow(cores)
	sc.sockMem.grow(sockets)
	sc.qpiOut.grow(sockets)
	return sc
}

// beginStage opens a fresh accounting epoch, invalidating every counter in
// O(1). On the (2³²nd) wraparound the stamps are cleared so a stale entry
// cannot alias the new epoch.
func (sc *priceScratch) beginStage() {
	sc.epoch++
	if sc.epoch == 0 {
		sc.coreSend.clearStamps()
		sc.coreRecv.clearStamps()
		sc.sockMem.clearStamps()
		sc.qpiOut.clearStamps()
		for i := range sc.linkEpoch {
			sc.linkEpoch[i] = 0
		}
		sc.epoch = 1
	}
}

// validateLayout mirrors topology.ValidateLayout — an injective placement of
// ranks onto existing cores — on the scratch's epoch-stamped counters, so
// steady-state pricing skips the reference implementation's seen-map
// allocation. It burns one private epoch as the seen-set.
func (sc *priceScratch) validateLayout(c *topology.Cluster, layout []int) error {
	sc.beginStage()
	ep := sc.epoch
	total := c.TotalCores()
	for r, core := range layout {
		if core < 0 || core >= total {
			return fmt.Errorf("topology: rank %d placed on core %d outside cluster (0..%d)", r, core, total-1)
		}
		if sc.coreSend.epoch[core] == ep {
			return fmt.Errorf("topology: ranks %d and %d both placed on core %d", sc.coreSend.load[core]-1, r, core)
		}
		sc.coreSend.epoch[core] = ep
		sc.coreSend.load[core] = int32(r) + 1
	}
	return nil
}

// routeIDs returns the interned link-id route from srcNode to dstNode,
// computing and caching it on first sight of the pair.
func (sc *priceScratch) routeIDs(net topology.Network, p *Params, srcNode, dstNode int) []int32 {
	key := uint64(uint32(srcNode))<<32 | uint64(uint32(dstNode))
	if ids, ok := sc.routes[key]; ok {
		return ids
	}
	sc.routeBuf = net.RouteDir(sc.routeBuf[:0], srcNode, dstNode)
	ids := make([]int32, len(sc.routeBuf))
	for i, dl := range sc.routeBuf {
		id, ok := sc.linkID[dl]
		if !ok {
			id = int32(len(sc.linkCap))
			sc.linkID[dl] = id
			sc.linkCap = append(sc.linkCap, p.CapNetPerCable*float64(net.Multiplicity(dl.Link)))
			sc.linkLoad = append(sc.linkLoad, 0)
			sc.linkEpoch = append(sc.linkEpoch, 0)
		}
		ids[i] = id
	}
	sc.routes[key] = ids
	return ids
}

// stagePass is the one pass over prog's pricing-view stages (Pre stages
// first). It checks that layout covers the program, takes the pooled scratch,
// validates the layout once, then per stage aggregates the shared-resource
// loads into the scratch and hands the stage to visit, which reads them
// through transferLineSparse or the link counters. A visit error ends the
// pass.
func (m *Machine) stagePass(prog *sched.Program, layout []int, visit func(sc *priceScratch, idx int, st *sched.ProgStage) error) error {
	if len(layout) < prog.P {
		return fmt.Errorf("simnet: layout covers %d ranks, schedule has %d", len(layout), prog.P)
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	if err := sc.validateLayout(m.Cluster, layout); err != nil {
		return err
	}
	for i := range prog.Stages {
		st := &prog.Stages[i]
		m.aggregateStage(sc, st.Transfers, layout)
		if err := visit(sc, i, st); err != nil {
			return err
		}
	}
	return nil
}

// aggregateStage opens a fresh epoch and accumulates every shared resource's
// load for the stage's transfer list — the size-independent first half of
// pricing a stage.
func (m *Machine) aggregateStage(sc *priceScratch, transfers []sched.Transfer, layout []int) {
	sc.beginStage()
	ep := sc.epoch
	c := m.Cluster
	for i := range transfers {
		tr := &transfers[i]
		src, dst := layout[tr.Src], layout[tr.Dst]
		sc.coreSend.inc(src, ep)
		sc.coreRecv.inc(dst, ep)
		srcNode, dstNode := c.NodeOf(src), c.NodeOf(dst)
		switch {
		case srcNode != dstNode:
			if c.Net == nil {
				continue // uniform inter-node channel, no link accounting
			}
			for _, id := range sc.routeIDs(c.Net, &m.Params, srcNode, dstNode) {
				if sc.linkEpoch[id] != ep {
					sc.linkEpoch[id] = ep
					sc.linkLoad[id] = 1
				} else {
					sc.linkLoad[id]++
				}
			}
		case !c.SameSocket(src, dst):
			// QPI load is keyed by (node, sending local socket), which is
			// exactly the sender's global socket index.
			sc.qpiOut.inc(c.SocketOf(src), ep)
			sc.sockMem.inc(c.SocketOf(src), ep)
			sc.sockMem.inc(c.SocketOf(dst), ep)
		default:
			sc.sockMem.inc(c.SocketOf(src), ep)
		}
	}
}

// stageTime returns the completion time of one execution of the aggregated
// stage at blockBytes: the worst of its transfers' times.
func (m *Machine) stageTime(sc *priceScratch, transfers []sched.Transfer, layout []int, blockBytes int) (float64, error) {
	worst := 0.0
	for i := range transfers {
		tr := &transfers[i]
		alpha, inv, err := m.transferLineSparse(sc, tr, layout)
		if err != nil {
			return 0, err
		}
		if t := lineTime(alpha, float64(tr.N), inv, float64(blockBytes)); t > worst {
			worst = t
		}
	}
	return worst, nil
}

// lineTime evaluates a transfer cost line: alpha + (n*blockBytes)*inv, for
// n blocks of blockBytes bytes. Every price goes through it, so the floating
// point operations and their order are the same on every path.
func lineTime(alpha, n, inv, blockBytes float64) float64 {
	return alpha + n*blockBytes*inv
}

// transferLineSparse computes the size-independent cost line of one transfer
// under the stage's aggregated loads: its channel latency alpha and the worst
// effective seconds-per-byte maxInv across the resources it crosses. The
// transfer's time at block size b is alpha + (N*b)*maxInv.
func (m *Machine) transferLineSparse(sc *priceScratch, tr *sched.Transfer, layout []int) (float64, float64, error) {
	p := &m.Params
	ep := sc.epoch
	src, dst := layout[tr.Src], layout[tr.Dst]
	endpoint := sc.coreSend.get(src, ep)
	if r := sc.coreRecv.get(dst, ep); r > endpoint {
		endpoint = r
	}

	srcNode, dstNode := m.Cluster.NodeOf(src), m.Cluster.NodeOf(dst)
	var alpha, streamBeta float64
	// maxInv is the largest effective seconds-per-byte across the per-stream
	// bandwidth (scaled by endpoint serialisation) and every shared resource
	// on the path. The comparisons are inlined (no closure) to keep the hot
	// loop allocation-free.
	maxInv := 0.0
	switch {
	case srcNode != dstNode:
		hops := 2
		if m.Cluster.Net != nil {
			hops = m.Cluster.Net.Hops(srcNode, dstNode)
		}
		alpha = p.AlphaNet + p.AlphaPerHop*float64(hops)
		streamBeta = 1 / p.StreamNet
		if m.Cluster.Net != nil {
			for _, id := range sc.routeIDs(m.Cluster.Net, p, srcNode, dstNode) {
				var load int32
				if sc.linkEpoch[id] == ep {
					load = sc.linkLoad[id]
				}
				if inv := float64(load) / sc.linkCap[id]; inv > maxInv {
					maxInv = inv
				}
			}
		}
	case !m.Cluster.SameSocket(src, dst):
		alpha = p.AlphaQPI
		streamBeta = 1 / p.StreamQPI
		srcSock, dstSock := m.Cluster.SocketOf(src), m.Cluster.SocketOf(dst)
		if inv := float64(sc.qpiOut.get(srcSock, ep)) / p.CapQPIDir; inv > maxInv {
			maxInv = inv
		}
		if inv := float64(sc.sockMem.get(srcSock, ep)) / p.CapSocketMem; inv > maxInv {
			maxInv = inv
		}
		if inv := float64(sc.sockMem.get(dstSock, ep)) / p.CapSocketMem; inv > maxInv {
			maxInv = inv
		}
	case src == dst:
		return 0, 0, fmt.Errorf("simnet: transfer between rank %d and %d lands on one core", tr.Src, tr.Dst)
	default:
		alpha = p.AlphaShm
		streamBeta = 1 / p.StreamShm
		if inv := float64(sc.sockMem.get(m.Cluster.SocketOf(src), ep)) / p.CapSocketMem; inv > maxInv {
			maxInv = inv
		}
	}
	if inv := streamBeta * float64(endpoint); inv > maxInv {
		maxInv = inv
	}
	return alpha, maxInv, nil
}
