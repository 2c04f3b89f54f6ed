package service

import (
	"container/list"
	"context"
	"sync"
)

// lru is the one store behind both public caches: an LRU of at most max
// values keyed by content address, with singleflight builds.  However
// many callers ask for a missing key at once, its value is built once;
// a failed build is never cached, so the next request retries.
//
// The store has no lock of its own.  Every method runs under the owning
// cache's mutex, which get releases only around a build or a wait — so
// one cache's stores nest (templates owning instantiation stores)
// without a lock order to keep.
type lru[V any] struct {
	mu      *sync.Mutex
	max     int
	stats   *CacheStats // Hits, Misses and Evictions; may be shared by stores
	onEvict func(key string, v V)
	order   *list.List // front = most recent; values are *lruItem[V]
	items   map[string]*list.Element
	calls   map[string]*lruCall[V]
}

type lruItem[V any] struct {
	key string
	v   V
}

// lruCall is one in-progress build shared by every concurrent caller
// for its key.
type lruCall[V any] struct {
	done chan struct{} // closed once v and err are set
	v    V
	err  error
}

// newLRU builds a store of at most n values (minimum 1) guarded by
// mu.  stats receives the counters (nil keeps private ones); onEvict,
// if set, runs under mu for every value the store drops.
func newLRU[V any](mu *sync.Mutex, n int, stats *CacheStats, onEvict func(key string, v V)) *lru[V] {
	if stats == nil {
		stats = new(CacheStats)
	}
	return &lru[V]{
		mu:      mu,
		max:     max(n, 1),
		stats:   stats,
		onEvict: onEvict,
		order:   list.New(),
		items:   map[string]*list.Element{},
		calls:   map[string]*lruCall[V]{},
	}
}

// get returns the value for key, calling build with mu released on a
// miss.  hit is true for a resident value and for a caller that waited
// on another's build.  ctx bounds only a waiter: a build it gave up on
// still lands for everyone else.
func (s *lru[V]) get(ctx context.Context, key string, build func() (V, error)) (v V, hit bool, err error) {
	if v, ok := s.lookup(key); ok {
		return v, true, nil
	}
	if c, ok := s.calls[key]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			s.mu.Lock()
			return v, false, ctx.Err()
		}
		s.mu.Lock()
		if c.err != nil {
			return v, false, c.err
		}
		s.stats.Hits++
		return c.v, true, nil
	}
	c := &lruCall[V]{done: make(chan struct{})}
	s.calls[key] = c
	s.stats.Misses++
	s.mu.Unlock()
	c.v, c.err = build()
	s.mu.Lock()
	delete(s.calls, key)
	if c.err == nil {
		s.items[key] = s.order.PushFront(&lruItem[V]{key, c.v})
		s.trim(s.max)
	}
	close(c.done)
	return c.v, false, c.err
}

// lookup returns the resident value for key and refreshes its recency.
func (s *lru[V]) lookup(key string) (v V, ok bool) {
	el, ok := s.items[key]
	if !ok {
		return v, false
	}
	s.order.MoveToFront(el)
	s.stats.Hits++
	return el.Value.(*lruItem[V]).v, true
}

// trim evicts least recently used values until at most n remain.
func (s *lru[V]) trim(n int) {
	for s.order.Len() > n {
		it := s.order.Remove(s.order.Back()).(*lruItem[V])
		delete(s.items, it.key)
		s.stats.Evictions++
		if s.onEvict != nil {
			s.onEvict(it.key, it.v)
		}
	}
}

func (s *lru[V]) len() int { return s.order.Len() }
