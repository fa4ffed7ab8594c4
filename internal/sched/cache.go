package sched

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"

	"repro/internal/metrics"
)

// Cache instrumentation on the default registry, exported through every
// /metrics endpoint that serves it (mapd included).
var (
	scheduleCacheHits = metrics.NewCounter("schedule_cache_hits_total",
		"Compiled-schedule cache hits.")
	scheduleCacheMisses = metrics.NewCounter("schedule_cache_misses_total",
		"Compiled-schedule cache misses (fresh compiles).")
	scheduleCompileSeconds = metrics.NewHistogramVec("schedule_compile_seconds",
		"Schedule compile latency by view (sized pricing view vs expanded executable view).",
		metrics.DurationOpts, "view")
)

func init() {
	scheduleCompileSeconds.With("view", "sized")
	scheduleCompileSeconds.With("view", "exec")
}

// Fingerprint returns a collision-resistant key for a schedule's full
// structural content: name, rank/block/root/init geometry, and every stage's
// repeat, reduce flag and transfer list. Two schedules with equal
// fingerprints compile to interchangeable programs. Rank reordering does not
// change a schedule (it changes the layout, applied at pricing time), so
// topology does not enter the key; order-preservation prologues do change
// the Pre stages and therefore the fingerprint.
func Fingerprint(s *Schedule) string {
	f := fingerprinter{h: sha256.New()}
	f.str(s.Name)
	f.put(0)
	f.word(int64(s.P))
	f.word(int64(s.NumBlocks()))
	f.word(int64(s.Root))
	f.word(int64(s.Init))
	f.word(int64(s.PostCopyBlocks))
	section := func(stages []Stage, marker byte) {
		f.put(marker)
		f.word(int64(len(stages)))
		for i := range stages {
			st := &stages[i]
			f.word(int64(st.repeats()))
			reduce := byte(0)
			if st.Reduce {
				reduce = 1
			}
			f.put(reduce)
			f.word(int64(len(st.Transfers)))
			for _, tr := range st.Transfers {
				f.word(int64(tr.Src))
				f.word(int64(tr.Dst))
				f.word(int64(tr.First))
				f.word(int64(tr.N))
				f.word(int64(tr.Mode))
				if tr.Mode == List {
					// Only List transfers hash their block list, so every
					// pre-existing schedule keeps its fingerprint.
					for _, b := range tr.Blocks {
						f.word(int64(b))
					}
				}
			}
		}
	}
	section(s.Pre, 'p')
	section(s.Stages, 'm')
	return f.sum()
}

// fingerprinter stages Fingerprint's byte stream in a 4 KiB buffer and
// hands SHA-256 whole chunks: the digest sees exactly the bytes one Write
// per field would feed it, without a Write call per 8-byte word.
type fingerprinter struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

func (f *fingerprinter) flush() {
	f.h.Write(f.buf[:f.n])
	f.n = 0
}

func (f *fingerprinter) put(b byte) {
	if f.n == len(f.buf) {
		f.flush()
	}
	f.buf[f.n] = b
	f.n++
}

func (f *fingerprinter) word(v int64) {
	if f.n+8 > len(f.buf) {
		f.flush()
	}
	binary.LittleEndian.PutUint64(f.buf[f.n:], uint64(v))
	f.n += 8
}

func (f *fingerprinter) str(s string) {
	for len(s) > 0 {
		if f.n == len(f.buf) {
			f.flush()
		}
		c := copy(f.buf[f.n:], s)
		f.n += c
		s = s[c:]
	}
}

func (f *fingerprinter) sum() string {
	f.flush()
	return hex.EncodeToString(f.h.Sum(nil))
}

// compileCacheCap bounds the cache; the working set of a figure run (a few
// algorithms x a few mappings) fits comfortably. It counts programs, not
// keys: a program reachable by its fingerprint and by recipes is one entry.
const compileCacheCap = 64

// recipeKey names a base schedule by how it is built rather than by what it
// contains: family, registered builder name, rank count and root (0 for
// unrooted families). Builders are deterministic and rooted is a pure
// relabelling, so a recipe determines its schedule — and hence its
// fingerprint — and a warm lookup needs neither the build nor the hash.
type recipeKey struct {
	family  FamilyID
	builder string
	p       int
	root    int
}

type cacheEntry struct {
	key     string      // schedule fingerprint
	recipes []recipeKey // recipe keys aliased to this program
	prog    *Program
}

// recipeCall is one in-flight recipe miss. Concurrent lookups of the same
// recipe wait for it instead of building and hashing the schedule again.
type recipeCall struct {
	done chan struct{}
	prog *Program
	err  error
}

// compileCache is the one process-wide program cache. A program enters it
// under its schedule fingerprint; recipe keys alias fingerprint entries, so
// both key kinds share one executable view and one LRU slot.
var compileCache = struct {
	mu       sync.Mutex
	ll       *list.List
	byKey    map[string]*list.Element
	byRecipe map[recipeKey]*list.Element
	inflight map[recipeKey]*recipeCall
}{
	ll:       list.New(),
	byKey:    make(map[string]*list.Element),
	byRecipe: make(map[recipeKey]*list.Element),
	inflight: make(map[recipeKey]*recipeCall),
}

// CompileCached compiles s through a bounded process-wide LRU keyed by the
// schedule fingerprint, so repeated collectives (and repeated pricings of
// the same schedule shape) reuse one Program — including its lazily built
// executable view. Compilation errors are not cached. Schedules built from a
// registered recipe are cheaper to look up through Family.BuildCached, which
// skips the build and the hash once warm.
func CompileCached(s *Schedule) (*Program, error) {
	key := Fingerprint(s)
	compileCache.mu.Lock()
	if e, ok := compileCache.byKey[key]; ok {
		prog := touch(e)
		compileCache.mu.Unlock()
		scheduleCacheHits.Inc()
		return prog, nil
	}
	compileCache.mu.Unlock()
	return compileInto(s, key, nil)
}

// compileRecipe returns the program for key, building its schedule with
// build (the family's registered builder for key.builder) only on a miss.
// Every lookup counts exactly one cache hit or miss; a miss is a fresh
// compile, and a lookup that shares an in-flight or already-compiled
// program counts a hit.
func compileRecipe(key recipeKey, build Builder) (*Program, error) {
	compileCache.mu.Lock()
	if e, ok := compileCache.byRecipe[key]; ok {
		prog := touch(e)
		compileCache.mu.Unlock()
		scheduleCacheHits.Inc()
		return prog, nil
	}
	if call, ok := compileCache.inflight[key]; ok {
		compileCache.mu.Unlock()
		<-call.done
		if call.err != nil {
			scheduleCacheMisses.Inc()
		} else {
			scheduleCacheHits.Inc()
		}
		return call.prog, call.err
	}
	call := &recipeCall{done: make(chan struct{})}
	compileCache.inflight[key] = call
	compileCache.mu.Unlock()

	call.prog, call.err = resolveRecipe(key, build)

	compileCache.mu.Lock()
	delete(compileCache.inflight, key)
	compileCache.mu.Unlock()
	close(call.done)
	return call.prog, call.err
}

// resolveRecipe serves a recipe miss: build the schedule once, relabel it
// to the recipe's root, fingerprint it, resolve it through the fingerprint
// entry (compiling only when that misses too), and alias the recipe key to
// the resulting program.
func resolveRecipe(key recipeKey, build Builder) (*Program, error) {
	s, err := build(key.p)
	if err == nil {
		s, err = rooted(s, key.root)
	}
	if err != nil {
		scheduleCacheMisses.Inc()
		return nil, err
	}
	fp := Fingerprint(s)
	compileCache.mu.Lock()
	if e, ok := compileCache.byKey[fp]; ok {
		alias(e, key)
		prog := touch(e)
		compileCache.mu.Unlock()
		scheduleCacheHits.Inc()
		return prog, nil
	}
	compileCache.mu.Unlock()
	return compileInto(s, fp, &key)
}

// compileInto compiles s, counts the miss, and installs the program under
// its fingerprint fp (and recipe, when non-nil), evicting least recently
// used programs — with all their keys — past the cap. When a concurrent
// caller installed fp first, its program is shared instead, so the
// executable view is built only once.
func compileInto(s *Schedule, fp string, recipe *recipeKey) (*Program, error) {
	scheduleCacheMisses.Inc()
	prog, err := Compile(s)
	if err != nil {
		return nil, err
	}
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	e, ok := compileCache.byKey[fp]
	if !ok {
		e = compileCache.ll.PushFront(&cacheEntry{key: fp, prog: prog})
		compileCache.byKey[fp] = e
	}
	if recipe != nil {
		alias(e, *recipe)
	}
	for compileCache.ll.Len() > compileCacheCap {
		oldest := compileCache.ll.Back()
		compileCache.ll.Remove(oldest)
		ent := oldest.Value.(*cacheEntry)
		delete(compileCache.byKey, ent.key)
		for _, r := range ent.recipes {
			delete(compileCache.byRecipe, r)
		}
	}
	return touch(e), nil
}

// touch marks e most recently used and returns its program. The caller
// holds compileCache.mu.
func touch(e *list.Element) *Program {
	compileCache.ll.MoveToFront(e)
	return e.Value.(*cacheEntry).prog
}

// alias makes key a second name for e's program. The caller holds
// compileCache.mu.
func alias(e *list.Element, key recipeKey) {
	ent := e.Value.(*cacheEntry)
	ent.recipes = append(ent.recipes, key)
	compileCache.byRecipe[key] = e
}

// ResetCompileCache empties the cache — fingerprint and recipe keys alike —
// for cold-compile benchmarks and tests.
func ResetCompileCache() {
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	compileCache.ll = list.New()
	compileCache.byKey = make(map[string]*list.Element)
	compileCache.byRecipe = make(map[recipeKey]*list.Element)
}

// CompileCacheCounters returns the cumulative hit and miss counts.
func CompileCacheCounters() (hits, misses uint64) {
	return scheduleCacheHits.Value(), scheduleCacheMisses.Value()
}
