// Package service is the long-lived compile-and-run layer over the W2
// compiler and the Warp simulator: a content-addressed LRU compile
// cache with singleflight deduplication, a bounded simulation worker
// pool with admission control and per-request deadlines, and an HTTP
// front end exporting Prometheus metrics.  It turns the one-shot
// compile-from-scratch CLIs into a daemon that compiles once and runs
// many times.
package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"warp"
	"warp/internal/obs"
)

// CompileFunc compiles W2 source under the given options.  The cache
// calls it once per distinct (source, options) pair; tests substitute
// instrumented implementations.
type CompileFunc func(src string, opts warp.Options) (*warp.Program, error)

// Key is the content address of one compilation: the SHA-256 of the
// source text and every option that affects code generation.  Two
// requests with the same Key are guaranteed the same microcode, so the
// cache may hand both the same *Program (safe — see warp.Program).
func Key(src string, opts warp.Options) string {
	h := sha256.New()
	h.Write([]byte(src))
	// The option encoding is versioned by its shape: any new
	// codegen-affecting option must be appended here or identical
	// sources would alias across differing code generation.
	// CompileWorkers is deliberately absent — the compiler's output is
	// byte-identical at any worker count, so compilations differing
	// only in parallelism must share one cache entry.
	fmt.Fprintf(h, "\x00noopt=%t\x00pipeline=%t\x00cells=%d\x00verify=%t",
		opts.NoOptimize, opts.Pipeline, opts.Cells, opts.Verify)
	return hex.EncodeToString(h.Sum(nil))
}

// flight is one in-progress compilation shared by every concurrent
// request for the same key.
type flight struct {
	done chan struct{} // closed when the compile finishes
	prog *warp.Program
	err  error
}

// entry is one cached compilation in the LRU list.
type entry struct {
	key  string
	prog *warp.Program
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is a content-addressed LRU compile cache with singleflight
// deduplication: concurrent Get calls for the same key wait on a single
// compilation instead of compiling redundantly.  Compilation errors are
// never cached — the next request retries.
type Cache struct {
	compile CompileFunc
	max     int

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *entry
	byKey   map[string]*list.Element
	flights map[string]*flight
	stats   CacheStats
}

// NewCache builds a cache holding at most max compiled programs,
// compiling misses with the given function (nil means warp.Compile).
func NewCache(max int, compile CompileFunc) *Cache {
	if max < 1 {
		max = 1
	}
	if compile == nil {
		compile = warp.Compile
	}
	return &Cache{
		compile: compile,
		max:     max,
		lru:     list.New(),
		byKey:   map[string]*list.Element{},
		flights: map[string]*flight{},
	}
}

// Get returns the compiled program for (src, opts), compiling it at
// most once no matter how many goroutines ask concurrently.  The
// returned key is the program's content address (usable with Lookup);
// hit reports whether the program came from the cache rather than a
// fresh compilation.  ctx bounds only this caller's wait — an abandoned
// compilation still completes and populates the cache for others.
func (c *Cache) Get(ctx context.Context, src string, opts warp.Options) (prog *warp.Program, key string, hit bool, err error) {
	return c.GetObserved(ctx, src, opts, nil)
}

// GetObserved is Get with a per-request phase sink: when this caller
// ends up owning the compilation flight, rec receives the compiler's
// phase events in place of opts.Recorder (a request-scoped trace turns
// them into spans).  Singleflight waiters and cache hits see no phases
// — their request did not compile anything, and saying so is the point
// of request-scoped tracing.  The sink observes the compile only: the
// cached program does not keep it.  rec never influences the content
// address.
func (c *Cache) GetObserved(ctx context.Context, src string, opts warp.Options, rec obs.PhaseSink) (prog *warp.Program, key string, hit bool, err error) {
	key = Key(src, opts)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		prog = el.Value.(*entry).prog
		c.mu.Unlock()
		return prog, key, true, nil
	}
	if f, ok := c.flights[key]; ok {
		// Someone else is compiling this key: wait for it and treat
		// the shared result as a hit for this caller.
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, key, false, ctx.Err()
		}
		if f.err != nil {
			return nil, key, false, f.err
		}
		c.mu.Lock()
		c.stats.Hits++
		c.mu.Unlock()
		return f.prog, key, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	if rec != nil {
		opts.Recorder = rec
	}
	f.prog, f.err = c.compile(src, opts)

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insertLocked(key, f.prog)
	}
	c.mu.Unlock()
	close(f.done)
	return f.prog, key, false, f.err
}

// Lookup returns the cached program for a content address, if present,
// and refreshes its recency.  An evicted or never-compiled key returns
// ok=false; the caller must resubmit the source.
func (c *Cache) Lookup(key string) (*warp.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).prog, true
}

// insertLocked adds a freshly compiled program, evicting from the LRU
// tail.  Caller holds c.mu.
func (c *Cache) insertLocked(key string, prog *warp.Program) {
	if el, ok := c.byKey[key]; ok {
		// A racing flight for the same key already landed; keep the
		// incumbent (identical by construction) and refresh it.
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&entry{key: key, prog: prog})
	for c.lru.Len() > c.max {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.byKey, tail.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// Keys returns the cached content addresses, most recently used first
// (diagnostic; order is the eviction order reversed).
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}
