package collective

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// HierarchicalAllgather runs the three-phase hierarchical allgather of paper
// Section II: intra-node gather into node leaders, inter-leader allgather,
// intra-node broadcast. nodeID assigns every *world* rank to its node (or
// any other grouping domain); all processes must pass consistent functions.
//
// The node groups are derived from nodeID over the communicator's members,
// in communicator rank order with the lowest rank of each node as its
// leader, and the whole composition compiles to one sched.Hierarchical
// program executed on c itself: blocks carry their contributor's identity
// through the schedule, so the output lands in rank order however ranks are
// spread over nodes. Nodes must be equally populated, and the ring inter
// phase needs each node's ranks to be contiguous (block layouts).
func HierarchicalAllgather(c *mpi.Comm, send, recv []byte, nodeID func(worldRank int) int, cfg sched.HierarchicalConfig) error {
	if _, err := checkAllgatherArgs(c, send, recv); err != nil {
		return err
	}
	kind := [2]byte{1 + byte(cfg.Intra), byte(cfg.Inter)} // {0, 0} is the allreduce
	prog, err := groupedProgram(c, nodeID, kind, func(groups [][]int) (*sched.Schedule, error) {
		return sched.Hierarchical(groups, nil, cfg)
	})
	if err != nil {
		return err
	}
	return runComposed(c, "hierarchical", "allgather", prog, func() error {
		return ExecuteAllgather(c, prog, send, recv, nil)
	})
}

// HierarchicalReorderedAllgather runs the paper's complete hierarchical
// deployment on the live runtime: every phase runs under its own
// topology-aware rank order —
//
//	phase 1 gather    in BGMH order inside each node,
//	phase 2 allgather in RDMH/RMH order among the leaders,
//	phase 3 broadcast in BBMH order inside each node,
//
// with intra-node mappings computed from each node's core distances and the
// leader mapping from inter-node distances (both derived from cluster and
// the worldRank→core layout). The mappings become the per-phase member
// orders of one sched.Hierarchical program executed on c. The mappings fix
// local rank 0, so every node keeps its leader. Linear intra phases expose
// no pattern, so they run unreordered, as in the paper; a recursive-doubling
// inter phase over a non-power-of-two leader count runs the ring.
//
// The per-communicator info key mpi.InfoTopoReorder (paper Section IV)
// disables the reordering: with "false" set, the call degrades to the plain
// HierarchicalAllgather. recv always lands in communicator rank order.
func HierarchicalReorderedAllgather(c *mpi.Comm, send, recv []byte, cluster *topology.Cluster, layout []int, cfg sched.HierarchicalConfig) error {
	if _, err := checkAllgatherArgs(c, send, recv); err != nil {
		return err
	}
	members := c.Members()
	for _, w := range members {
		if w < 0 || w >= len(layout) {
			return fmt.Errorf("collective: layout covers %d world ranks, world rank %d has no core", len(layout), w)
		}
	}
	nodeOf := func(worldRank int) int { return cluster.NodeOf(layout[worldRank]) }
	if !c.ReorderEnabled() {
		return HierarchicalAllgather(c, send, recv, nodeOf, cfg)
	}
	distances := func(ranks []int) (*topology.Distances, error) {
		cores := make([]int, len(ranks))
		for i, r := range ranks {
			cores[i] = layout[members[r]]
		}
		return topology.NewDistances(cluster, cores)
	}

	groups := sched.Groups(members, nodeOf)
	gather, bcast := groups, groups
	if cfg.Intra == sched.NonLinear {
		gather, bcast = make([][]int, len(groups)), make([][]int, len(groups))
		for i, g := range groups {
			gather[i], bcast[i] = g, g
			if len(g) == 1 {
				continue
			}
			d, err := distances(g)
			if err != nil {
				return err
			}
			gm, err := core.BGMH(d, nil)
			if err != nil {
				return err
			}
			bm, err := core.BBMH(d, nil)
			if err != nil {
				return err
			}
			gather[i], bcast[i] = permute(g, gm), permute(g, bm)
		}
	}

	inter := cfg.Inter
	if n := len(groups); n&(n-1) != 0 {
		inter = sched.InterRing
	}
	if n := len(groups); n > 1 {
		leaders := make([]int, n)
		for i, g := range groups {
			leaders[i] = g[0]
		}
		d, err := distances(leaders)
		if err != nil {
			return err
		}
		var lm core.Mapping
		if inter == sched.InterRecursiveDoubling {
			lm, err = core.RDMH(d, nil)
		} else {
			lm, err = core.RMH(d, nil)
		}
		if err != nil {
			return err
		}
		gather, bcast = permute(gather, lm), permute(bcast, lm)
	}

	s, err := sched.Hierarchical(gather, bcast, sched.HierarchicalConfig{Intra: cfg.Intra, Inter: inter})
	if err != nil {
		return err
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		return err
	}
	return runComposed(c, "hierarchical-reordered", "allgather", prog, func() error {
		return ExecuteAllgather(c, prog, send, recv, nil)
	})
}

// HierarchicalAllreduce implements the paper's future-work extension: a
// topology-friendly MPI_Allreduce composed of an intra-node binomial reduce
// into the leaders, a leader-level reduce + broadcast, and an intra-node
// binomial broadcast — reusing exactly the patterns BGMH and BBMH optimise.
// nodeID groups world ranks into nodes (populations may differ); buf is
// combined in place on every rank. The composition compiles to one
// sched.HierarchicalAllreduce program executed on c.
func HierarchicalAllreduce(c *mpi.Comm, buf []byte, op ReduceOp, nodeID func(worldRank int) int) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	prog, err := groupedProgram(c, nodeID, [2]byte{0, 0}, sched.HierarchicalAllreduce)
	if err != nil {
		return err
	}
	return runComposed(c, "hierarchical-allreduce", "allreduce", prog, func() error {
		return ExecuteAllreduce(c, prog, buf, op)
	})
}

// groupedProgram returns the compiled composition build makes from c's node
// groups — sched.Groups over the members: groups in order of their lowest
// communicator rank, members in rank order, so each group's leader is its
// lowest rank. It is memoized in c's world under kind (which composition)
// and the node id of every member, so a repeated call over the same grouping
// neither rebuilds nor fingerprints its schedule.
func groupedProgram(c *mpi.Comm, nodeID func(worldRank int) int, kind [2]byte, build func(groups [][]int) (*sched.Schedule, error)) (*sched.Program, error) {
	members := c.Members()
	key := append(make([]byte, 0, len(groupedKeyPrefix)+2+binary.MaxVarintLen64*len(members)), groupedKeyPrefix...)
	key = append(key, kind[:]...)
	for _, w := range members {
		key = binary.AppendVarint(key, int64(nodeID(w)))
	}
	if v, ok := c.WorldValue(string(key)); ok {
		return v.(*sched.Program), nil
	}
	s, err := build(sched.Groups(members, nodeID))
	if err != nil {
		return nil, err
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		return nil, err
	}
	c.SetWorldValue(string(key), prog)
	return prog, nil
}

// groupedKeyPrefix namespaces groupedProgram's world-value keys.
const groupedKeyPrefix = "collective.grouped/"

// permute returns xs in the order of mapping m: element j is xs[m[j]].
func permute[T any](xs []T, m core.Mapping) []T {
	out := make([]T, len(xs))
	for j, old := range m {
		out[j] = xs[old]
	}
	return out
}

// runComposed executes a composed program under the collective metrics
// label and the family/program trace span.
func runComposed(c *mpi.Comm, label, famName string, prog *sched.Program, run func() error) error {
	defer beginCollective(label)()
	name := famName + "/" + prog.Name
	c.TraceEnter(name)
	defer c.TraceExit(name)
	return run()
}
