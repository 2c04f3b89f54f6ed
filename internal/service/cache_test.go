package service

import (
	"context"
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
	_, k1, hit1, err := c.Get(ctx, src, warp.Options{})
	if err != nil || hit1 {
		t.Fatalf("first compile: hit=%v err=%v", hit1, err)
	}
	_, k2, hit2, err := c.Get(ctx, src, warp.Options{Pipeline: true})
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

func TestCacheLRUEviction(t *testing.T) {
	srcs := []string{
		workloads.Polynomial(10, 40),
		workloads.Polynomial(10, 50),
		workloads.Polynomial(10, 60),
	}
	c := NewCache(2, nil)
	ctx := context.Background()
	var keys []string
	for _, src := range srcs[:2] {
		_, k, _, err := c.Get(ctx, src, warp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Touch the older entry so it is the most recent; the untouched one
	// must be the eviction victim.
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("keys[0] missing before eviction")
	}
	_, k3, _, err := c.Get(ctx, srcs[2], warp.Options{})
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
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", s)
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
			prog, _, hit, err := c.Get(context.Background(), src, warp.Options{})
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

// TestCacheErrorNotCached proves a failed compilation is retried, not
// pinned.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(8, nil)
	ctx := context.Background()
	if _, _, _, err := c.Get(ctx, "cellprogram nonsense(", warp.Options{}); err == nil {
		t.Fatal("want a compile error")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("error was cached: %+v", s)
	}
	// Second attempt recompiles (another miss), not a cached error.
	if _, _, _, err := c.Get(ctx, "cellprogram nonsense(", warp.Options{}); err == nil {
		t.Fatal("want a compile error again")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses", s)
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
