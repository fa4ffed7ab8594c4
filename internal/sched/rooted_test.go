package sched

import (
	"fmt"
	"testing"
)

// TestRootedVerifiesAtEveryRoot is the relabelling property: every builder
// of every rooted family, rotated to any root of any communicator size,
// passes its family's Verify at that root and compiles to an executable
// program.
func TestRootedVerifiesAtEveryRoot(t *testing.T) {
	for _, id := range []FamilyID{FamilyBroadcast, FamilyGather, FamilyScatter} {
		fam := FamilyByID(id)
		for _, name := range fam.BuilderNames() {
			for p := 1; p <= 17; p++ {
				s, err := fam.Build(name, p)
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", fam.Name, name, p, err)
				}
				for root := 0; root < p; root++ {
					label := fmt.Sprintf("%s/%s p=%d root=%d", fam.Name, name, p, root)
					r, err := rooted(s, root)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if r.Root != root {
						t.Fatalf("%s: rotated schedule has root %d", label, r.Root)
					}
					if err := fam.Verify(r); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					prog, err := Compile(r)
					if err != nil {
						t.Fatalf("%s: compile: %v", label, err)
					}
					if err := prog.EnsureExecutable(); err != nil {
						t.Errorf("%s: executable view: %v", label, err)
					}
				}
			}
		}
	}
}

func TestRootedRejectsOutOfRangeRoot(t *testing.T) {
	s, err := BinomialGather(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []int{-1, 4, 9} {
		if _, err := rooted(s, root); err == nil {
			t.Errorf("root %d accepted for p=4", root)
		}
		if _, err := FamilyByID(FamilyGather).BuildCachedAt("binomial-gather", 4, root); err == nil {
			t.Errorf("BuildCachedAt accepted root %d for p=4", root)
		}
	}
	if r, err := rooted(s, 0); err != nil || r != s {
		t.Errorf("root 0 should return the schedule itself, got %v, %v", r, err)
	}
}

// TestRootedRecipeCache pins the root in the recipe key: each root resolves
// to its own program, rooted where asked, and a warm lookup returns it again
// as a cache hit.
func TestRootedRecipeCache(t *testing.T) {
	fam := FamilyByID(FamilyBroadcast)
	const p = 6
	seen := map[*Program]bool{}
	for root := 0; root < p; root++ {
		prog, err := fam.BuildCachedAt("binomial-broadcast", p, root)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Root != root {
			t.Errorf("root %d: program rooted at %d", root, prog.Root)
		}
		if seen[prog] {
			t.Errorf("root %d shares a program with another root", root)
		}
		seen[prog] = true
		h0, m0 := CompileCacheCounters()
		again, err := fam.BuildCachedAt("binomial-broadcast", p, root)
		h1, m1 := CompileCacheCounters()
		if err != nil || again != prog {
			t.Errorf("root %d: warm lookup returned %p (%v), want %p", root, again, err, prog)
		}
		if h1-h0 != 1 || m1 != m0 {
			t.Errorf("root %d: warm lookup counted %d hits and %d misses, want 1 and 0", root, h1-h0, m1-m0)
		}
	}
}
