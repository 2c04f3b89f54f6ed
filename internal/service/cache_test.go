package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warp"
	"warp/internal/obs"
	"warp/internal/workloads"
)

// phaseCounter is an obs.PhaseSink that counts compiler phase events by
// name — the observable proof of how many driver compilations actually
// ran.
type phaseCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newPhaseCounter() *phaseCounter {
	return &phaseCounter{counts: map[string]int{}}
}

func (p *phaseCounter) Phase(ph obs.PhaseStat) {
	p.mu.Lock()
	p.counts[ph.Name]++
	p.mu.Unlock()
}

func (p *phaseCounter) count(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[name]
}

func TestCacheKeyDistinguishesOptions(t *testing.T) {
	src := workloads.Polynomial(10, 50)
	plain := Key(src, warp.Options{})
	piped := Key(src, warp.Options{Pipeline: true})
	noopt := Key(src, warp.Options{NoOptimize: true})
	cells := Key(src, warp.Options{Cells: 5})
	keys := map[string]string{"default": plain, "pipeline": piped, "noopt": noopt, "cells": cells}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("options %q and %q share cache key %s", name, prev, k)
		}
		seen[k] = name
	}
	if Key(src, warp.Options{}) != plain {
		t.Error("Key is not deterministic")
	}
	// The Recorder must not affect the content address: it changes
	// instrumentation, not code generation.
	if Key(src, warp.Options{Recorder: newPhaseCounter()}) != plain {
		t.Error("Recorder leaked into the cache key")
	}
}

func TestCacheSeparatesPipelineEntries(t *testing.T) {
	src := workloads.Polynomial(10, 50)
	c := NewCache(8, nil)
	ctx := context.Background()
	_, k1, hit1, err := c.GetObserved(ctx, src, warp.Options{}, nil)
	if err != nil || hit1 {
		t.Fatalf("first compile: hit=%v err=%v", hit1, err)
	}
	_, k2, hit2, err := c.GetObserved(ctx, src, warp.Options{Pipeline: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit2 {
		t.Error("Options{Pipeline: true} hit the default-options entry")
	}
	if k1 == k2 {
		t.Error("pipeline and default compiles share a key")
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses, 2 entries", s)
	}
}

// sharedCache is either public cache seen through the behaviours both
// share: get asks for the i-th distinct program, stats reports the
// program-level counters (Entries counts resident programs).
type sharedCache interface {
	get(ctx context.Context, i int) (key string, hit bool, err error)
	Lookup(key string) (*warp.Program, bool)
	stats() CacheStats
}

type compileCache struct{ *Cache }

func (c compileCache) get(ctx context.Context, i int) (string, bool, error) {
	_, key, hit, err := c.GetObserved(ctx, workloads.Polynomial(10, 40+10*i), warp.Options{}, nil)
	return key, hit, err
}

func (c compileCache) stats() CacheStats { return c.Stats() }

// templateCache asks for instantiations of one template, all in the
// residue class n≡2 (mod 6), so only the first fits the class.
type templateCache struct{ *TemplateCache }

func (c templateCache) get(ctx context.Context, i int) (string, bool, error) {
	_, key, hit, _, err := c.GetObserved(ctx, workloads.MatmulSym(), warp.Options{},
		map[string]int64{"n": int64(8 + 6*i)}, nil)
	return key, hit, err
}

func (c templateCache) stats() CacheStats {
	s := c.Stats()
	return CacheStats{Entries: s.Programs, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions}
}

// cacheKinds opens each public cache holding at most max programs (per
// template, for the template cache) with hook called at the start of
// every build: each compile for the compile cache, each template build
// for the template cache.
var cacheKinds = []struct {
	name string
	open func(max int, hook func()) sharedCache
}{
	{"compile", func(max int, hook func()) sharedCache {
		return compileCache{NewCache(max, func(src string, opts warp.Options) (*warp.Program, error) {
			hook()
			return warp.Compile(src, opts)
		})}
	}},
	{"template", func(max int, hook func()) sharedCache {
		return templateCache{NewTemplateCache(1, max, func(src string, opts warp.Options) (*warp.Template, error) {
			hook()
			return warp.CompileTemplate(src, opts)
		})}
	}},
}

// TestCacheLRUEviction pins least-recently-used eviction in both caches
// — for the template cache, the per-template instantiation cap.
func TestCacheLRUEviction(t *testing.T) {
	for _, kind := range cacheKinds {
		t.Run(kind.name, func(t *testing.T) {
			c := kind.open(2, func() {})
			ctx := context.Background()
			var keys []string
			for i := 0; i < 2; i++ {
				k, _, err := c.get(ctx, i)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
			// Touch the older entry so it is the most recent; the
			// untouched one must be the eviction victim.
			if _, ok := c.Lookup(keys[0]); !ok {
				t.Fatal("keys[0] missing before eviction")
			}
			k3, _, err := c.get(ctx, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Lookup(keys[1]); ok {
				t.Error("least-recently-used entry survived eviction")
			}
			if _, ok := c.Lookup(keys[0]); !ok {
				t.Error("recently touched entry was evicted")
			}
			if _, ok := c.Lookup(k3); !ok {
				t.Error("newest entry was evicted")
			}
			if s := c.stats(); s.Evictions != 1 || s.Entries != 2 {
				t.Errorf("stats = %+v, want 1 eviction, 2 entries", s)
			}
		})
	}
}

// arrivalCtx reports every Done call on arrived: a singleflight waiter
// calls Done exactly once, when it starts waiting on another caller's
// build.
type arrivalCtx struct {
	context.Context
	arrived chan<- struct{}
}

func (c arrivalCtx) Done() <-chan struct{} {
	c.arrived <- struct{}{}
	return c.Context.Done()
}

// TestCacheWaiterCancel proves a waiter's context bounds only its own
// wait: the waiter gets ctx.Err() while the build it gave up on still
// lands for everyone else.
func TestCacheWaiterCancel(t *testing.T) {
	for _, kind := range cacheKinds {
		t.Run(kind.name, func(t *testing.T) {
			entered := make(chan struct{}, 1)
			release := make(chan struct{})
			c := kind.open(8, func() {
				entered <- struct{}{}
				<-release
			})
			type result struct {
				key string
				hit bool
				err error
			}
			owner := make(chan result, 1)
			go func() {
				k, hit, err := c.get(context.Background(), 0)
				owner <- result{k, hit, err}
			}()
			<-entered

			arrived := make(chan struct{}, 1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			waiter := make(chan error, 1)
			go func() {
				_, _, err := c.get(arrivalCtx{ctx, arrived}, 0)
				waiter <- err
			}()
			<-arrived
			cancel()
			if err := <-waiter; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
			}

			close(release)
			r := <-owner
			if r.err != nil || r.hit {
				t.Fatalf("owner: hit=%v err=%v, want a building miss", r.hit, r.err)
			}
			if _, ok := c.Lookup(r.key); !ok {
				t.Fatal("the abandoned build did not land in the cache")
			}
		})
	}
}

// TestCacheSingleflight proves two concurrent compiles of the same
// source run the driver exactly once: the second caller waits on the
// first flight and shares its *Program.  The driver-invocation count is
// asserted two ways — an atomic counter around the compile function and
// the obs phase recorder (one "parse" phase means one compilation).
func TestCacheSingleflight(t *testing.T) {
	rec := newPhaseCounter()
	var invocations atomic.Int32
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	compile := func(src string, opts warp.Options) (*warp.Program, error) {
		invocations.Add(1)
		entered <- struct{}{}
		<-release
		opts.Recorder = rec
		return warp.Compile(src, opts)
	}
	c := NewCache(8, compile)
	src := workloads.PolynomialPaper()

	type result struct {
		prog *warp.Program
		hit  bool
		err  error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			prog, _, hit, err := c.GetObserved(context.Background(), src, warp.Options{}, nil)
			results <- result{prog, hit, err}
		}()
	}
	<-entered // one flight is inside the compile function
	// The other goroutine either becomes a waiter on that flight or has
	// not reached the cache yet; release the gate and settle both.
	close(release)
	r1, r2 := <-results, <-results
	if r1.err != nil || r2.err != nil {
		t.Fatalf("errors: %v, %v", r1.err, r2.err)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("driver invoked %d times, want exactly 1", n)
	}
	if n := rec.count("parse"); n != 1 {
		t.Fatalf("phase recorder saw %d parse phases, want exactly 1", n)
	}
	if r1.prog != r2.prog {
		t.Error("concurrent callers got distinct *Program values")
	}
	if r1.hit == r2.hit {
		t.Errorf("want one miss (the flight owner) and one hit (the waiter); got hit=%v and hit=%v", r1.hit, r2.hit)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit", s)
	}
}

// TestCacheErrorNotCached proves a failed compilation, template build
// or instantiation is retried, not pinned.
func TestCacheErrorNotCached(t *testing.T) {
	ctx := context.Background()
	cache := NewCache(8, nil)
	var templateBuilds atomic.Int32
	broken := NewTemplateCache(8, 8, func(string, warp.Options) (*warp.Template, error) {
		templateBuilds.Add(1)
		return nil, errors.New("no template")
	})
	tmpls := NewTemplateCache(8, 8, nil)
	for _, tt := range []struct {
		name string
		c    sharedCache
		get  func() error
	}{
		{"compile", compileCache{cache}, func() error {
			_, _, _, err := cache.GetObserved(ctx, "cellprogram nonsense(", warp.Options{}, nil)
			return err
		}},
		{"template", templateCache{broken}, func() error {
			_, _, _, _, err := broken.GetObserved(ctx, workloads.MatmulSym(), warp.Options{}, map[string]int64{"n": 8}, nil)
			return err
		}},
		{"instantiation", templateCache{tmpls}, func() error {
			_, _, _, _, err := tmpls.GetObserved(ctx, workloads.MatmulSym(), warp.Options{}, map[string]int64{"n": 8, "bogus": 3}, nil)
			return err
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			// Each attempt builds again (another miss), not a cached
			// error.
			for i := 1; i <= 2; i++ {
				if err := tt.get(); err == nil {
					t.Fatalf("attempt %d: want an error", i)
				}
				if s := tt.c.stats(); s.Entries != 0 || s.Misses != int64(i) {
					t.Fatalf("attempt %d: stats = %+v, want no entries, %d misses", i, s, i)
				}
			}
		})
	}
	if n := templateBuilds.Load(); n != 2 {
		t.Errorf("failing template built %d times in 2 requests, want 2", n)
	}
}

// TestGetObservedReleasesTrace pins that a request's phase sink only
// observes the compile: once the request drops its trace, the cached
// program must not keep it reachable.
func TestGetObservedReleasesTrace(t *testing.T) {
	c := NewCache(8, warp.Compile)
	src := workloads.Polynomial(10, 50)
	collected := make(chan struct{})
	func() {
		tr := obs.NewTrace()
		runtime.SetFinalizer(tr, func(*obs.Trace) { close(collected) })
		root := tr.StartSpan("request", nil)
		if _, _, hit, err := c.GetObserved(context.Background(), src, warp.Options{}, obs.SpanPhases(tr, root)); err != nil || hit {
			t.Fatalf("GetObserved: hit=%v err=%v, want a compiling miss", hit, err)
		}
		root.End()
		if n := len(tr.Spans()); n < 2 {
			t.Fatalf("trace recorded %d spans, want the request plus compile phases", n)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if _, ok := c.Lookup(Key(src, warp.Options{})); !ok {
				t.Fatal("program left the cache")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the request's trace is still reachable after the request dropped it")
}
