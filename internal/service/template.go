package service

import (
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

// tmplEntry is one resident template plus its store of instantiated
// programs.  The template itself is tiny (parsed source and fitted
// closed forms); the instantiations hold full microcode artifacts, so
// they are what the caps bound.
type tmplEntry struct {
	tmpl    *warp.Template
	insts   *lru[instantiation]
	evicted bool // set once the template has left the cache
}

// instantiation is one program instantiated from a template.
type instantiation struct {
	prog   *warp.Program
	detail *warp.TemplateDetail
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
// like a concretely compiled one.  Template builds and instantiations
// are both singleflighted; the probe compiles that fit a template's
// residue classes are additionally deduplicated inside the template
// itself.
type TemplateCache struct {
	compile     TemplateCompileFunc
	maxPrograms int // per-template instantiation cap

	mu    sync.Mutex
	tmpls *lru[*tmplEntry]
	owner map[string]string  // instantiation key -> owning template's key
	stats TemplateCacheStats // Instantiations and Fallbacks
	insts CacheStats         // shared by every template's instantiation store
}

// NewTemplateCache builds a cache holding at most maxTemplates
// templates with at most maxPrograms instantiated programs each.
func NewTemplateCache(maxTemplates, maxPrograms int, compile TemplateCompileFunc) *TemplateCache {
	if compile == nil {
		compile = warp.CompileTemplate
	}
	tc := &TemplateCache{compile: compile, maxPrograms: maxPrograms, owner: map[string]string{}}
	// Evicting a template drops (and counts) all of its instantiations.
	tc.tmpls = newLRU(&tc.mu, maxTemplates, nil, func(_ string, te *tmplEntry) {
		te.insts.trim(0)
		te.evicted = true
	})
	return tc
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
// bounds, building the template at most once per (source, options) and
// instantiating at most once per bound vector.  The returned key is the
// instantiated program's content address (usable with Lookup and /run);
// hit reports whether the program was already resident or built by a
// concurrent request; detail reports how the program was served (closed
// forms or concrete fallback), with ClassBuilt set only for the request
// that paid for the class's probe compiles.  rec receives the
// instantiation's phase events when this caller does the work.  ctx
// bounds only this caller's wait.
func (tc *TemplateCache) GetObserved(ctx context.Context, src string, opts warp.Options, bounds map[string]int64, rec obs.PhaseSink) (prog *warp.Program, key string, hit bool, detail *warp.TemplateDetail, err error) {
	tmplKey := Key(src, opts)
	key = instantiationKey(tmplKey, boundsKey(bounds))
	tc.mu.Lock()
	defer tc.mu.Unlock()
	te, _, err := tc.tmpls.get(ctx, tmplKey, func() (*tmplEntry, error) {
		tmpl, err := tc.compile(src, opts)
		if err != nil {
			return nil, err
		}
		te := &tmplEntry{tmpl: tmpl}
		te.insts = newLRU(&tc.mu, tc.maxPrograms, &tc.insts, func(k string, _ instantiation) {
			// An evicted template's store only receives builds that were
			// in flight, and none of those is indexed.
			if !te.evicted {
				delete(tc.owner, k)
			}
		})
		return te, nil
	})
	if err != nil {
		tc.insts.Misses++ // no template means the program missed too
		return nil, key, false, nil, err
	}
	inst, hit, err := te.insts.get(ctx, key, func() (instantiation, error) {
		prog, detail, err := te.tmpl.ProgramDetail(bounds, rec)
		return instantiation{prog, detail}, err
	})
	switch {
	case err != nil:
		return nil, key, false, nil, err
	case hit:
		// The class was built by whichever request missed first.
		d := *inst.detail
		d.ClassBuilt = false
		return inst.prog, key, true, &d, nil
	case inst.detail.Symbolic:
		tc.stats.Instantiations++
	default:
		tc.stats.Fallbacks++
	}
	if !te.evicted {
		tc.owner[key] = tmplKey
	}
	return inst.prog, key, false, inst.detail, nil
}

// Lookup returns the resident instantiated program for a content
// address, refreshing the recency of both it and its template.
func (tc *TemplateCache) Lookup(key string) (*warp.Program, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tmplKey, ok := tc.owner[key]
	if !ok {
		return nil, false
	}
	te, _ := tc.tmpls.lookup(tmplKey)
	inst, _ := te.insts.lookup(key)
	return inst.prog, true
}

// Stats snapshots the cache counters.
func (tc *TemplateCache) Stats() TemplateCacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	s := tc.stats
	s.Templates = tc.tmpls.len()
	s.Programs = len(tc.owner)
	s.Hits, s.Misses, s.Evictions = tc.insts.Hits, tc.insts.Misses, tc.insts.Evictions
	return s
}
