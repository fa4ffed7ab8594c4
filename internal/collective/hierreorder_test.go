package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// hierCluster builds a small multi-node cluster and a layout for p ranks.
func hierCluster(t testing.TB, nodes, sockets, cores, p int, kind topology.LayoutKind) (*topology.Cluster, []int) {
	t.Helper()
	c, err := topology.NewCluster(nodes, sockets, cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := topology.Layout(c, p, kind)
	if err != nil {
		t.Fatal(err)
	}
	return c, layout
}

func TestHierarchicalReorderedAllgather(t *testing.T) {
	configs := []sched.HierarchicalConfig{
		{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.NonLinear, Inter: sched.InterRing},
		{Intra: sched.Linear, Inter: sched.InterRing},
		{Intra: sched.Linear, Inter: sched.InterRecursiveDoubling},
	}
	for _, cfg := range configs {
		for _, kind := range []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter} {
			const nodes, p, blk = 4, 32, 16
			cluster, layout := hierCluster(t, nodes, 2, 4, p, kind)
			want := expected(p, blk)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				send := input(c.Rank(), blk)
				recv := make([]byte, p*blk)
				if err := HierarchicalReorderedAllgather(c, send, recv, cluster, layout, cfg); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("rank %d: wrong output under %v/%v", c.Rank(), cfg, kind)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v %v: %v", cfg, kind, err)
			}
		}
	}
}

func TestHierarchicalReorderedRespectsInfoKey(t *testing.T) {
	const p, blk = 16, 8
	cluster, layout := hierCluster(t, 2, 2, 4, p, topology.BlockScatter)
	want := expected(p, blk)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		c.SetInfo(mpi.InfoTopoReorder, "false")
		send := input(c.Rank(), blk)
		recv := make([]byte, p*blk)
		cfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRing}
		if err := HierarchicalReorderedAllgather(c, send, recv, cluster, layout, cfg); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("disabled reordering broke the collective")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalReorderedKeepsLeadersLocal(t *testing.T) {
	// The reordered node phases must keep their leaders on the same
	// process (the mappings fix rank 0), so the leader set — and hence the
	// inter-node traffic endpoints — is unchanged. Verify by checking the
	// traffic matrix only connects node leaders across nodes.
	const p, blk = 16, 64
	cluster, layout := hierCluster(t, 4, 2, 2, p, topology.BlockBunch)
	stats := mpi.NewStats()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := input(c.Rank(), blk)
		recv := make([]byte, p*blk)
		cfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRing}
		return HierarchicalReorderedAllgather(c, send, recv, cluster, layout, cfg)
	}, mpi.WithStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	for pair, bytes := range stats.PairBytes() {
		// Every message of the compiled program carries at least one
		// blk-byte block; anything smaller is not collective data.
		if bytes < blk {
			continue
		}
		srcNode := cluster.NodeOf(layout[pair[0]])
		dstNode := cluster.NodeOf(layout[pair[1]])
		if srcNode == dstNode {
			continue
		}
		// Cross-node payloads must involve leaders only (the lowest world
		// rank of each node under block layout).
		if pair[0]%4 != 0 || pair[1]%4 != 0 {
			t.Errorf("non-leader cross-node traffic %v (%d bytes)", pair, bytes)
		}
	}
}

func TestHierarchicalReorderedErrors(t *testing.T) {
	cluster, layout := hierCluster(t, 2, 2, 2, 8, topology.BlockBunch)
	err := mpi.Run(8, func(c *mpi.Comm) error {
		cfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRing}
		if err := HierarchicalReorderedAllgather(c, nil, nil, cluster, layout, cfg); err == nil {
			return fmt.Errorf("empty buffers accepted")
		}
		if err := HierarchicalReorderedAllgather(c, make([]byte, 4), make([]byte, 32), cluster, layout[:2], cfg); err == nil {
			return fmt.Errorf("short layout accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
