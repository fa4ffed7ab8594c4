package sched

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// contiguousGroups builds g groups of k consecutive ranks each.
func contiguousGroups(g, k int) [][]int {
	groups := make([][]int, g)
	for i := 0; i < g; i++ {
		for j := 0; j < k; j++ {
			groups[i] = append(groups[i], i*k+j)
		}
	}
	return groups
}

func allHierConfigs() []HierarchicalConfig {
	return []HierarchicalConfig{
		{Linear, InterRecursiveDoubling},
		{Linear, InterRing},
		{NonLinear, InterRecursiveDoubling},
		{NonLinear, InterRing},
	}
}

func TestHierarchicalVerifies(t *testing.T) {
	for _, cfg := range allHierConfigs() {
		for _, shape := range [][2]int{{1, 4}, {2, 4}, {4, 8}, {8, 8}, {16, 4}} {
			groups := contiguousGroups(shape[0], shape[1])
			s, err := Hierarchical(groups, nil, cfg)
			if err != nil {
				t.Fatalf("%v %v: %v", cfg, shape, err)
			}
			if err := s.VerifyAllgather(); err != nil {
				t.Errorf("%v %v: %v", cfg, shape, err)
			}
		}
	}
}

func TestHierarchicalNonContiguousGroups(t *testing.T) {
	// Interleaved groups (a cyclic layout) verify with recursive doubling
	// but are rejected by the ring inter phase.
	groups := [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}}
	s, err := Hierarchical(groups, nil, HierarchicalConfig{NonLinear, InterRecursiveDoubling})
	if err != nil {
		t.Fatalf("rd: %v", err)
	}
	if err := s.VerifyAllgather(); err != nil {
		t.Errorf("rd: %v", err)
	}
	if _, err := Hierarchical(groups, nil, HierarchicalConfig{NonLinear, InterRing}); err == nil {
		t.Error("ring inter accepted non-contiguous groups")
	}
}

func TestHierarchicalErrors(t *testing.T) {
	if _, err := Hierarchical(nil, nil, HierarchicalConfig{}); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := Hierarchical([][]int{{0, 1}, {2}}, nil, HierarchicalConfig{}); err == nil {
		t.Error("non-uniform groups accepted")
	}
	if _, err := Hierarchical([][]int{{0}, {0}}, nil, HierarchicalConfig{}); err == nil {
		t.Error("duplicate rank accepted")
	}
	if _, err := Hierarchical([][]int{{0}, {5}}, nil, HierarchicalConfig{}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Hierarchical([][]int{{0}, {}}, nil, HierarchicalConfig{}); err == nil {
		t.Error("empty group accepted")
	}
	// Recursive doubling inter phase requires power-of-two group count.
	if _, err := Hierarchical(contiguousGroups(3, 2), nil, HierarchicalConfig{Linear, InterRecursiveDoubling}); err == nil {
		t.Error("3 groups accepted for recursive-doubling inter phase")
	}
}

func TestHierarchicalSingleGroup(t *testing.T) {
	s, err := Hierarchical(contiguousGroups(1, 8), nil, HierarchicalConfig{NonLinear, InterRing})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyAllgather(); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalBroadcastVolume(t *testing.T) {
	// Phase 3 transfers must carry the full p blocks.
	p := 16
	s, err := Hierarchical(contiguousGroups(4, 4), nil, HierarchicalConfig{Linear, InterRing})
	if err != nil {
		t.Fatal(err)
	}
	last := s.Stages[len(s.Stages)-1]
	for _, tr := range last.Transfers {
		if int(tr.N) != p {
			t.Errorf("broadcast transfer carries %d blocks, want %d", tr.N, p)
		}
	}
}

func TestGroups(t *testing.T) {
	c, err := topology.NewCluster(4, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(c, 16, topology.BlockBunch)
	groups := Groups(layout, c.NodeOf)
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(groups))
	}
	for gi, g := range groups {
		if len(g) != 4 {
			t.Errorf("group %d has %d ranks", gi, len(g))
		}
		for _, r := range g {
			if c.NodeOf(layout[r]) != c.NodeOf(layout[g[0]]) {
				t.Errorf("group %d mixes nodes", gi)
			}
		}
	}
	// Cyclic layout: groups interleave but still partition the ranks.
	layout = topology.MustLayout(c, 16, topology.CyclicBunch)
	groups = Groups(layout, c.NodeOf)
	seen := map[int]bool{}
	for _, g := range groups {
		for _, r := range g {
			if seen[r] {
				t.Errorf("rank %d in two groups", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != 16 {
		t.Errorf("groups cover %d ranks, want 16", len(seen))
	}
}

func TestHierarchicalPatterns(t *testing.T) {
	ig, inter, ib := HierarchicalPatterns(HierarchicalConfig{NonLinear, InterRecursiveDoubling})
	if ig == nil || *ig != core.BinomialGather {
		t.Error("non-linear gather pattern missing")
	}
	if inter == nil || *inter != core.RecursiveDoubling {
		t.Error("inter pattern wrong")
	}
	if ib == nil || *ib != core.BinomialBroadcast {
		t.Error("non-linear bcast pattern missing")
	}
	ig, inter, ib = HierarchicalPatterns(HierarchicalConfig{Linear, InterRing})
	if ig != nil || ib != nil {
		t.Error("linear phases should expose no pattern")
	}
	if inter == nil || *inter != core.Ring {
		t.Error("ring inter pattern wrong")
	}
}

func TestHierarchicalName(t *testing.T) {
	s, err := Hierarchical(contiguousGroups(2, 2), nil, HierarchicalConfig{NonLinear, InterRing})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name, "non-linear") || !strings.Contains(s.Name, "ring") {
		t.Errorf("name = %q", s.Name)
	}
}

func TestIntraInterKindStrings(t *testing.T) {
	if Linear.String() != "linear" || NonLinear.String() != "non-linear" {
		t.Error("IntraKind strings")
	}
	if InterRing.String() != "ring" || InterRecursiveDoubling.String() != "recursive-doubling" {
		t.Error("InterKind strings")
	}
}

func TestOrderModes(t *testing.T) {
	if InitComm.String() != "initComm" || EndShuffle.String() != "endShfl" || NoOrderFix.String() != "none" {
		t.Error("OrderMode strings")
	}
	if OrderMode(9).String() == "" {
		t.Error("unknown order mode should format")
	}
}

func TestNeedsOrderFix(t *testing.T) {
	cases := []struct {
		build func() (*Schedule, error)
		want  bool
	}{
		{func() (*Schedule, error) { return RecursiveDoubling(8) }, true},
		{func() (*Schedule, error) { return Ring(8) }, false},
		{func() (*Schedule, error) { return Bruck(8) }, true},
		{func() (*Schedule, error) { return BinomialGather(8) }, true},
		{func() (*Schedule, error) { return BinomialBroadcast(8, 1) }, false},
		{func() (*Schedule, error) { return LinearGather(8) }, false},
		{func() (*Schedule, error) {
			return Hierarchical(contiguousGroups(2, 4), nil, HierarchicalConfig{Linear, InterRing})
		}, false},
		{func() (*Schedule, error) {
			return Hierarchical(contiguousGroups(2, 4), nil, HierarchicalConfig{Linear, InterRecursiveDoubling})
		}, true},
		{func() (*Schedule, error) {
			return Hierarchical(contiguousGroups(2, 4), nil, HierarchicalConfig{NonLinear, InterRing})
		}, true},
	}
	for _, tc := range cases {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NeedsOrderFix(); got != tc.want {
			t.Errorf("%s: NeedsOrderFix = %v, want %v", s.Name, got, tc.want)
		}
	}
}

func TestWithOrderPreservation(t *testing.T) {
	s, _ := RecursiveDoubling(8)
	m := core.Mapping{0, 2, 1, 3, 4, 5, 6, 7} // swap ranks 1 and 2

	ic, err := WithOrderPreservation(s, m, InitComm)
	if err != nil {
		t.Fatal(err)
	}
	if len(ic.Pre) != 1 || len(ic.Pre[0].Transfers) != 2 {
		t.Errorf("initComm pre = %+v", ic.Pre)
	}
	if err := ic.Validate(); err != nil {
		t.Error(err)
	}
	if err := ic.VerifyAllgather(); err != nil {
		t.Error(err)
	}

	es, err := WithOrderPreservation(s, m, EndShuffle)
	if err != nil {
		t.Fatal(err)
	}
	if es.PostCopyBlocks != 8 {
		t.Errorf("endShfl post copy = %d, want 8", es.PostCopyBlocks)
	}
	// The original schedule is untouched.
	if len(s.Pre) != 0 || s.PostCopyBlocks != 0 {
		t.Error("WithOrderPreservation mutated the input schedule")
	}
}

func TestWithOrderPreservationNoops(t *testing.T) {
	s, _ := RecursiveDoubling(8)
	// Identity mapping: nothing to fix.
	got, err := WithOrderPreservation(s, core.Identity(8), InitComm)
	if err != nil || got != s {
		t.Errorf("identity mapping should return the schedule unchanged (%v)", err)
	}
	// Ring never needs a fix.
	r, _ := Ring(8)
	got, err = WithOrderPreservation(r, core.Mapping{1, 0, 2, 3, 4, 5, 6, 7}, InitComm)
	if err != nil || got != r {
		t.Errorf("ring should be unchanged (%v)", err)
	}
	// NoOrderFix mode.
	got, err = WithOrderPreservation(s, core.Mapping{1, 0, 2, 3, 4, 5, 6, 7}, NoOrderFix)
	if err != nil || got != s {
		t.Errorf("NoOrderFix should return the schedule unchanged (%v)", err)
	}
}

func TestWithOrderPreservationErrors(t *testing.T) {
	s, _ := RecursiveDoubling(8)
	if _, err := WithOrderPreservation(s, core.Mapping{1, 0}, InitComm); err == nil {
		t.Error("mismatched mapping length accepted")
	}
	if _, err := WithOrderPreservation(s, core.Mapping{1, 0, 2, 3, 4, 5, 6, 7}, OrderMode(42)); err == nil {
		t.Error("unknown order mode accepted")
	}
}

// TestHierarchicalBroadcastOrder: a broadcast phase with its own member
// order (a reordered node communicator) still verifies, and an order that
// moves the leader or strays outside its group is rejected.
func TestHierarchicalBroadcastOrder(t *testing.T) {
	groups := contiguousGroups(2, 4)
	bcast := [][]int{{0, 3, 1, 2}, {4, 6, 7, 5}}
	for _, cfg := range allHierConfigs() {
		s, err := Hierarchical(groups, bcast, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
	for _, bad := range [][][]int{
		{{1, 0, 2, 3}, {4, 5, 6, 7}}, // leader moved
		{{0, 1, 2, 4}, {3, 5, 6, 7}}, // member of another group
		{{0, 1, 1, 2}, {4, 5, 6, 7}}, // duplicate
		{{0, 1, 2, 3}},               // group missing
	} {
		if _, err := Hierarchical(groups, bad, HierarchicalConfig{NonLinear, InterRing}); err == nil {
			t.Errorf("broadcast order %v accepted", bad)
		}
	}
}

func TestHierarchicalAllreduceVerifies(t *testing.T) {
	for _, groups := range [][][]int{
		{{0}},
		{{0, 1, 2, 3}},
		contiguousGroups(4, 2),
		contiguousGroups(3, 3),
		{{0, 1, 2}, {3, 4}},               // uneven populations
		{{0, 2, 4, 6}, {1, 3, 5, 7}},      // interleaved
		{{0}, {1, 2, 3, 4, 5, 6, 7}, {8}}, // singletons beside a large node
	} {
		s, err := HierarchicalAllreduce(groups)
		if err != nil {
			t.Fatalf("%v: %v", groups, err)
		}
		if err := s.VerifyAllreduce(); err != nil {
			t.Errorf("%v: %v", groups, err)
		}
	}
	if _, err := HierarchicalAllreduce([][]int{{0}, {0}}); err == nil {
		t.Error("overlapping groups accepted")
	}
}
