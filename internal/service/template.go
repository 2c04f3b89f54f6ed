package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"warp"
	"warp/internal/obs"
)

// TemplateCompileFunc builds a symbolic template from ${...} source.
// The template cache calls it once per distinct (source, options) pair;
// tests substitute instrumented implementations (nil means
// warp.CompileTemplate).
type TemplateCompileFunc func(src string, opts warp.Options) (*warp.Template, error)

// templateFlight is one in-progress instantiation shared by every
// concurrent request for the same (template, bounds) pair.
type templateFlight struct {
	done   chan struct{}
	prog   *warp.Program
	detail *warp.TemplateDetail
	err    error
}

// instEntry is one instantiated program in a template's LRU.
type instEntry struct {
	boundsKey string
	progKey   string // global content address (Lookup key)
	prog      *warp.Program
	detail    *warp.TemplateDetail
}

// tmplEntry is one resident template plus its per-template LRU of
// instantiated programs.  The template itself is tiny (parsed source
// and fitted closed forms); the instantiations hold full microcode
// artifacts, so they are what the caps bound.
type tmplEntry struct {
	key      string
	tmpl     *warp.Template
	insts    *list.List
	byBounds map[string]*list.Element
}

// TemplateCacheStats is a snapshot of the template-cache counters.
type TemplateCacheStats struct {
	Templates int // resident templates
	Programs  int // resident instantiated programs across all templates
	Hits      int64
	Misses    int64
	Evictions int64 // instantiated programs evicted (template evictions drop all theirs)
	// Instantiations counts misses served from the closed forms;
	// Fallbacks counts misses that needed a concrete compile.
	Instantiations int64
	Fallbacks      int64
}

// TemplateCache is the service's symbolic-compilation cache: a two-level
// LRU holding templates keyed by (source, codegen options) content
// address and, under each template, the programs instantiated from it
// keyed by bound vector.  A program's public content address covers
// (template, bounds), so /run can name an instantiated program exactly
// like a concretely compiled one.  Instantiations are singleflighted;
// the probe compiles that fit a template's residue classes are
// additionally deduplicated inside the template itself.
type TemplateCache struct {
	compile      TemplateCompileFunc
	maxTemplates int
	maxPrograms  int // per-template instantiation cap

	mu      sync.Mutex
	lru     *list.List // *tmplEntry, front = most recent
	byKey   map[string]*list.Element
	progs   map[string]*instEntry // global progKey index for Lookup
	flights map[string]*templateFlight
	stats   TemplateCacheStats
}

// NewTemplateCache builds a cache holding at most maxTemplates
// templates with at most maxPrograms instantiated programs each.
func NewTemplateCache(maxTemplates, maxPrograms int, compile TemplateCompileFunc) *TemplateCache {
	if maxTemplates < 1 {
		maxTemplates = 1
	}
	if maxPrograms < 1 {
		maxPrograms = 1
	}
	if compile == nil {
		compile = warp.CompileTemplate
	}
	return &TemplateCache{
		compile:      compile,
		maxTemplates: maxTemplates,
		maxPrograms:  maxPrograms,
		lru:          list.New(),
		byKey:        map[string]*list.Element{},
		progs:        map[string]*instEntry{},
		flights:      map[string]*templateFlight{},
	}
}

// boundsKey canonicalizes a bound vector ("k=5,n=32", sorted by name)
// so equal vectors always address the same instantiation.
func boundsKey(bounds map[string]int64) string {
	names := make([]string, 0, len(bounds))
	for name := range bounds {
		names = append(names, name)
	}
	sort.Strings(names)
	s := ""
	for i, name := range names {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", name, bounds[name])
	}
	return s
}

// instantiationKey is the public content address of one instantiated
// program: the template's content address (Key over source and codegen
// options) plus the canonical bound vector, with a domain marker so a
// template instantiation can never alias a plain compilation.
func instantiationKey(tmplKey, bk string) string {
	h := sha256.New()
	fmt.Fprintf(h, "symbolic\x00%s\x00bounds=%s", tmplKey, bk)
	return hex.EncodeToString(h.Sum(nil))
}

// GetObserved returns the program for (src, opts) instantiated at
// bounds, compiling the template and fitting its residue classes at
// most once per (source, options) and instantiating at most once per
// bound vector.  The returned key is the instantiated program's content
// address (usable with Lookup and /run); hit reports whether the
// program was already resident; detail reports how a miss was served
// (closed forms or concrete fallback).  rec receives the template's
// phase events when this caller owns the instantiation flight.
func (tc *TemplateCache) GetObserved(ctx context.Context, src string, opts warp.Options, bounds map[string]int64, rec obs.PhaseSink) (prog *warp.Program, key string, hit bool, detail *warp.TemplateDetail, err error) {
	tmplKey := Key(src, opts)
	bk := boundsKey(bounds)
	key = instantiationKey(tmplKey, bk)

	tc.mu.Lock()
	if ent, ok := tc.progs[key]; ok {
		tc.touchLocked(tmplKey, bk)
		tc.stats.Hits++
		tc.mu.Unlock()
		return ent.prog, key, true, ent.detail, nil
	}
	if f, ok := tc.flights[key]; ok {
		tc.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, key, false, nil, ctx.Err()
		}
		if f.err != nil {
			return nil, key, false, nil, f.err
		}
		tc.mu.Lock()
		tc.stats.Hits++
		tc.mu.Unlock()
		return f.prog, key, true, f.detail, nil
	}
	f := &templateFlight{done: make(chan struct{})}
	tc.flights[key] = f
	tc.stats.Misses++
	tc.mu.Unlock()

	tmpl, err := tc.template(src, opts, tmplKey)
	if err == nil {
		f.prog, f.detail, f.err = tmpl.ProgramDetail(bounds, rec)
	} else {
		f.err = err
	}

	tc.mu.Lock()
	delete(tc.flights, key)
	if f.err == nil {
		if f.detail != nil && f.detail.Symbolic {
			tc.stats.Instantiations++
		} else {
			tc.stats.Fallbacks++
		}
		tc.insertLocked(tmplKey, &instEntry{boundsKey: bk, progKey: key, prog: f.prog, detail: f.detail})
	}
	tc.mu.Unlock()
	close(f.done)
	return f.prog, key, false, f.detail, f.err
}

// template returns the resident template for tmplKey, building it on
// first use.  Building is cheap (source parsing; the probe compiles run
// lazily inside ProgramDetail), so a build race is settled
// incumbent-wins: whichever template landed first is the one everybody
// shares, keeping the class-fitting work deduplicated.
func (tc *TemplateCache) template(src string, opts warp.Options, tmplKey string) (*warp.Template, error) {
	tc.mu.Lock()
	if el, ok := tc.byKey[tmplKey]; ok {
		tc.lru.MoveToFront(el)
		tmpl := el.Value.(*tmplEntry).tmpl
		tc.mu.Unlock()
		return tmpl, nil
	}
	tc.mu.Unlock()

	tmpl, err := tc.compile(src, opts)
	if err != nil {
		return nil, err
	}

	tc.mu.Lock()
	defer tc.mu.Unlock()
	if el, ok := tc.byKey[tmplKey]; ok {
		tc.lru.MoveToFront(el)
		return el.Value.(*tmplEntry).tmpl, nil
	}
	ent := &tmplEntry{key: tmplKey, tmpl: tmpl, insts: list.New(), byBounds: map[string]*list.Element{}}
	tc.byKey[tmplKey] = tc.lru.PushFront(ent)
	for tc.lru.Len() > tc.maxTemplates {
		tail := tc.lru.Back()
		tc.lru.Remove(tail)
		te := tail.Value.(*tmplEntry)
		delete(tc.byKey, te.key)
		for el := te.insts.Front(); el != nil; el = el.Next() {
			delete(tc.progs, el.Value.(*instEntry).progKey)
			tc.stats.Evictions++
		}
	}
	return tmpl, nil
}

// touchLocked refreshes recency for a hit: the template in the outer
// LRU and the instantiation in the template's own.  Caller holds tc.mu.
func (tc *TemplateCache) touchLocked(tmplKey, bk string) {
	el, ok := tc.byKey[tmplKey]
	if !ok {
		return
	}
	tc.lru.MoveToFront(el)
	te := el.Value.(*tmplEntry)
	if iel, ok := te.byBounds[bk]; ok {
		te.insts.MoveToFront(iel)
	}
}

// insertLocked files a freshly instantiated program under its template,
// evicting from that template's LRU tail.  Caller holds tc.mu.
func (tc *TemplateCache) insertLocked(tmplKey string, ent *instEntry) {
	el, ok := tc.byKey[tmplKey]
	if !ok {
		// The template was evicted while this instantiation was in
		// flight; the program still works, it just is not resident.
		return
	}
	tc.lru.MoveToFront(el)
	te := el.Value.(*tmplEntry)
	if iel, ok := te.byBounds[ent.boundsKey]; ok {
		te.insts.MoveToFront(iel)
		return
	}
	te.byBounds[ent.boundsKey] = te.insts.PushFront(ent)
	tc.progs[ent.progKey] = ent
	for te.insts.Len() > tc.maxPrograms {
		tail := te.insts.Back()
		te.insts.Remove(tail)
		old := tail.Value.(*instEntry)
		delete(te.byBounds, old.boundsKey)
		delete(tc.progs, old.progKey)
		tc.stats.Evictions++
	}
}

// Lookup returns the resident instantiated program for a content
// address, refreshing its recency.
func (tc *TemplateCache) Lookup(key string) (*warp.Program, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ent, ok := tc.progs[key]
	if !ok {
		return nil, false
	}
	tc.stats.Hits++
	// Recency: find the owning template by walking the (small) outer
	// LRU; the instantiation entry knows only its bounds key.
	for el := tc.lru.Front(); el != nil; el = el.Next() {
		te := el.Value.(*tmplEntry)
		if iel, ok := te.byBounds[ent.boundsKey]; ok && iel.Value.(*instEntry) == ent {
			tc.lru.MoveToFront(el)
			te.insts.MoveToFront(iel)
			break
		}
	}
	return ent.prog, true
}

// Stats snapshots the cache counters.
func (tc *TemplateCache) Stats() TemplateCacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	s := tc.stats
	s.Templates = tc.lru.Len()
	s.Programs = len(tc.progs)
	return s
}

// TemplateStats exposes each resident template's lifetime counters,
// keyed by template content address (diagnostic).
func (tc *TemplateCache) TemplateStats() map[string]warp.TemplateStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make(map[string]warp.TemplateStats, tc.lru.Len())
	for el := tc.lru.Front(); el != nil; el = el.Next() {
		te := el.Value.(*tmplEntry)
		out[te.key] = te.tmpl.Stats()
	}
	return out
}
