package sched

import (
	"errors"
	"sync"
	"testing"
)

// recipeFingerprint returns the fingerprint key the recipe is aliased to in
// the compile cache, or "" when the recipe is not cached.
func recipeFingerprint(key recipeKey) string {
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	if e, ok := compileCache.byRecipe[key]; ok {
		return e.Value.(*cacheEntry).key
	}
	return ""
}

// TestRecipeCacheCoverage pins the recipe key to the fingerprint key for
// every registered builder: BuildCached must resolve to the very program
// CompileCached holds for the built schedule, under that schedule's
// fingerprint, whichever key kind is looked up first. A builder whose
// schedule failed to build must fail through BuildCached too.
func TestRecipeCacheCoverage(t *testing.T) {
	ps := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64}
	for _, f := range Families() {
		for _, name := range f.BuilderNames() {
			for i, p := range ps {
				s, err := f.Build(name, p)
				if err != nil {
					if _, cerr := f.BuildCached(name, p); cerr == nil {
						t.Errorf("%s/%s p=%d: Build fails (%v) but BuildCached succeeds", f.Name, name, p, err)
					}
					continue
				}
				fp := Fingerprint(s)
				var byRecipe, byFP *Program
				if i%2 == 0 {
					byRecipe, err = f.BuildCached(name, p)
					if err == nil {
						byFP, err = CompileCached(s)
					}
				} else {
					byFP, err = CompileCached(s)
					if err == nil {
						byRecipe, err = f.BuildCached(name, p)
					}
				}
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", f.Name, name, p, err)
				}
				if byRecipe != byFP {
					t.Errorf("%s/%s p=%d: recipe and fingerprint lookups returned distinct programs", f.Name, name, p)
				}
				if got := recipeFingerprint(recipeKey{family: f.ID, builder: name, p: p}); got != fp {
					t.Errorf("%s/%s p=%d: recipe aliased to fingerprint %q, want %q", f.Name, name, p, got, fp)
				}
			}
		}
	}
}

// TestRecipeCacheConcurrentSingleMiss races 64 goroutines through a cold
// then warm recipe lookup: all of them must share one program, and the cold
// miss must be counted — and compiled — exactly once.
func TestRecipeCacheConcurrentSingleMiss(t *testing.T) {
	ResetCompileCache()
	fam := FamilyByID(FamilyAllgather)
	const goroutines, warm = 64, 4
	h0, m0 := CompileCacheCounters()
	progs := make([]*Program, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i <= warm; i++ {
				prog, err := fam.BuildCached("recursive-doubling", 64)
				if err != nil {
					errs[g] = err
					return
				}
				if i > 0 && prog != progs[g] {
					errs[g] = errors.New("warm lookup returned a distinct program")
					return
				}
				progs[g] = prog
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range progs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if progs[g] != progs[0] {
			t.Fatalf("goroutine %d got a distinct program", g)
		}
	}
	h1, m1 := CompileCacheCounters()
	if m1-m0 != 1 {
		t.Errorf("cold concurrent lookups counted %d misses, want 1", m1-m0)
	}
	if want := uint64(goroutines*(warm+1) - 1); h1-h0 != want {
		t.Errorf("hits delta = %d, want %d", h1-h0, want)
	}
}

// TestRecipeCacheEvictionAndReset pins the cache's bookkeeping across key
// kinds: evicting a program drops its fingerprint and recipe keys together,
// a program first compiled by fingerprint is shared (a hit, not a fresh
// compile) by a later recipe lookup, and ResetCompileCache clears both
// key kinds.
func TestRecipeCacheEvictionAndReset(t *testing.T) {
	ResetCompileCache()
	fam := FamilyByID(FamilyAllgather)
	key := recipeKey{family: FamilyAllgather, builder: "ring", p: 6}
	s, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(s)

	h0, m0 := CompileCacheCounters()
	byFP, err := CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	byRecipe, err := fam.BuildCached("ring", 6)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := CompileCacheCounters()
	if byFP != byRecipe {
		t.Error("recipe lookup did not share the fingerprint entry's program")
	}
	if m1-m0 != 1 || h1-h0 != 1 {
		t.Errorf("counters delta hits=%d misses=%d, want 1/1", h1-h0, m1-m0)
	}
	compileCache.mu.Lock()
	programs := len(compileCache.byKey)
	compileCache.mu.Unlock()
	if programs != 1 {
		t.Errorf("one program under two keys occupies %d cache slots, want 1", programs)
	}

	// Flood past the cap with distinct programs: the probed program is
	// least recently used and must lose both keys.
	for p := 100; p < 100+compileCacheCap; p++ {
		if _, err := fam.BuildCached("ring", p); err != nil {
			t.Fatal(err)
		}
	}
	compileCache.mu.Lock()
	_, fpLive := compileCache.byKey[fp]
	_, recipeLive := compileCache.byRecipe[key]
	programs = len(compileCache.byKey)
	recipes := len(compileCache.byRecipe)
	compileCache.mu.Unlock()
	if fpLive || recipeLive {
		t.Errorf("evicted program still reachable: fingerprint=%v recipe=%v", fpLive, recipeLive)
	}
	if programs != compileCacheCap || recipes != compileCacheCap {
		t.Errorf("cache holds %d programs under %d recipes, want %d of each", programs, recipes, compileCacheCap)
	}
	_, mBefore := CompileCacheCounters()
	again, err := fam.BuildCached("ring", 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, mAfter := CompileCacheCounters(); mAfter != mBefore+1 {
		t.Error("evicted recipe did not recompile")
	}
	if again == byRecipe {
		t.Error("evicted recipe returned the stale program pointer")
	}

	ResetCompileCache()
	compileCache.mu.Lock()
	left := len(compileCache.byKey) + len(compileCache.byRecipe)
	compileCache.mu.Unlock()
	if left != 0 {
		t.Errorf("ResetCompileCache left %d keys or programs", left)
	}
	_, mBefore = CompileCacheCounters()
	if _, err := fam.BuildCached("ring", 6); err != nil {
		t.Fatal(err)
	}
	if _, mAfter := CompileCacheCounters(); mAfter != mBefore+1 {
		t.Error("recipe lookup after reset did not recompile")
	}
}

// TestFingerprintGolden pins Fingerprint's digests, computed by the
// one-Write-per-field implementation, so the buffered byte stream stays
// identical: every cached key and every synth table's recorded schedule
// fingerprint depends on it. The padded name crosses the 4 KiB staging
// buffer; Bruck all-to-all hashes List-mode block lists.
func TestFingerprintGolden(t *testing.T) {
	longName, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	for len(longName.Name) < 5000 {
		longName.Name += "x"
	}
	cases := []struct {
		name  string
		build func() (*Schedule, error)
		want  string
	}{
		{"ring/64", func() (*Schedule, error) { return Ring(64) }, "eb892be73ef098f0c4b1fa580e1692b11c411cbcc0107b89e6a2db7f55644eba"},
		{"bruck-alltoall/64", func() (*Schedule, error) { return BruckAlltoall(64) }, "4b43fe5299114ea317fe05e3475318d92b549f8972ae38f8268828a6d5a5e407"},
		{"recursive-doubling/4096", func() (*Schedule, error) { return RecursiveDoubling(4096) }, "796816d5528c6d4c59323669c1dd8754464513857aa6ee1811ac02cd9de3d7ce"},
		{"ring/8 with a 5000-byte name", func() (*Schedule, error) { return longName, nil }, "303459e64e0cf1a58d16c19f24b3cc27ff95a30b2e0f840bc2c2c0ec9655d114"},
	}
	for _, tc := range cases {
		s, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := Fingerprint(s); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkFingerprint measures the SHA-256 schedule key at mapd's largest
// rank count, where it is paid on every cold compile.
func BenchmarkFingerprint(b *testing.B) {
	s, err := RecursiveDoubling(4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fingerprint(s)
	}
}
