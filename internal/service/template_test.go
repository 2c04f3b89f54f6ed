package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"warp"
	"warp/internal/workloads"
)

// TestServiceSymbolicCompileAndRun drives the template path end to end:
// a symbolic compile builds the template once, later bound vectors
// instantiate from it (no further template builds), the instantiated
// program runs by content address with outputs identical to a plain
// compile of the substituted source, and the template counters show up
// on /metrics and in the flight record.
func TestServiceSymbolicCompileAndRun(t *testing.T) {
	var builds atomic.Int64
	svc := New(Config{
		Workers:  2,
		NoVerify: true, // keep the probe compiles cheap; parity is pinned in internal/symbolic
		CompileTemplate: func(src string, opts warp.Options) (*warp.Template, error) {
			builds.Add(1)
			return warp.CompileTemplate(src, opts)
		},
	})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.MatmulSym()

	// First instantiation pays the probe compiles for the class.
	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 8}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("symbolic compile n=8: status %d: %s", resp.StatusCode, body)
	}
	var cr8 CompileResponse
	if err := json.Unmarshal(body, &cr8); err != nil {
		t.Fatal(err)
	}
	if cr8.Template == nil || !cr8.Template.Symbolic || !cr8.Template.ClassBuilt {
		t.Fatalf("n=8 response template detail = %+v, want symbolic with the class built", cr8.Template)
	}

	// A second bound vector in the same residue class instantiates from
	// the already-fitted closed forms — same template, new program.
	resp, body = postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 14}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("symbolic compile n=14: status %d: %s", resp.StatusCode, body)
	}
	var cr14 CompileResponse
	if err := json.Unmarshal(body, &cr14); err != nil {
		t.Fatal(err)
	}
	if cr14.Template == nil || !cr14.Template.Symbolic || cr14.Template.ClassBuilt {
		t.Fatalf("n=14 response template detail = %+v, want symbolic from the fitted class", cr14.Template)
	}
	if cr14.Program == cr8.Program {
		t.Fatal("different bound vectors got the same program content address")
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("template built %d times for one (source, options) pair, want 1", got)
	}

	// Repeating the first bound vector is a cache hit on the
	// instantiated program, and does not claim the class build that the
	// first request paid for.
	resp, body = postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 8}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat compile: status %d: %s", resp.StatusCode, body)
	}
	var crRepeat CompileResponse
	if err := json.Unmarshal(body, &crRepeat); err != nil {
		t.Fatal(err)
	}
	if !crRepeat.Cached || crRepeat.Program != cr8.Program {
		t.Fatalf("repeat compile: cached=%v program=%s, want hit on %s", crRepeat.Cached, crRepeat.Program, cr8.Program)
	}
	if strings.Contains(string(body), "class_built") {
		t.Fatalf("repeat compile reports class_built: %s", body)
	}

	// The instantiated program runs by its content address, and the
	// outputs match a plain compile of the substituted source.
	concrete, err := warp.Compile(workloads.Matmul(14), warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]float64{}
	for _, p := range concrete.Params() {
		if p.Out {
			continue
		}
		arr := make([]float64, p.Size)
		for j := range arr {
			arr[j] = float64(j%7) / 4
		}
		inputs[p.Name] = arr
	}
	want, _, err := concrete.RunWith(warp.RunConfig{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{Program: cr14.Program, Inputs: inputs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run by id: status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		got := rr.Outputs[name]
		if len(got) != len(w) {
			t.Fatalf("output %s has %d values, want %d", name, len(got), len(w))
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("output %s[%d] = %v, concrete compile says %v", name, j, got[j], w[j])
			}
		}
	}

	// /run with inline symbolic source resolves through the same
	// template cache (a hit now).
	resp, body = postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:  src,
		Options: CompileOptions{Symbolic: true, Bounds: map[string]int64{"n": 14}},
		Inputs:  inputs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run by symbolic source: status %d: %s", resp.StatusCode, body)
	}
	var rr2 RunResponse
	if err := json.Unmarshal(body, &rr2); err != nil {
		t.Fatal(err)
	}
	if !rr2.Cached || rr2.Program != cr14.Program {
		t.Fatalf("symbolic run: cached=%v program=%s, want hit on %s", rr2.Cached, rr2.Program, cr14.Program)
	}

	// Template counters are live on /metrics.
	tcs := svc.TemplateCacheStats()
	if tcs.Templates != 1 || tcs.Misses < 2 || tcs.Instantiations < 2 || tcs.Hits < 2 {
		t.Fatalf("template cache stats = %+v, want 1 template, >=2 misses/instantiations, >=2 hits", tcs)
	}
	var sb strings.Builder
	svc.Metrics().WritePrometheus(&sb, svc.CacheStats(), tcs, svc.PoolStats())
	text := sb.String()
	for _, want := range []string{
		"warpd_template_entries 1",
		"warpd_template_instantiations_total",
		"warpd_template_hits_total",
		"warpd_template_misses_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Instantiation is a compile phase: the template-instantiate series
	// must appear beside parse/cellgen in the per-phase aggregates.
	if !strings.Contains(text, `warpd_compile_phase_seconds_total{phase="template-instantiate"}`) {
		t.Error("metrics missing template-instantiate compile phase series")
	}

	// The flight recorder carries the template detail for debugging.
	resp, err2 := client.Get(ts.URL + "/debug/requests")
	if err2 != nil {
		t.Fatal(err2)
	}
	defer resp.Body.Close()
	var listing struct {
		Requests []*RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range listing.Requests {
		if rec.Template != nil && rec.Template.Symbolic {
			found = true
			break
		}
	}
	if !found {
		t.Error("no flight record carries a symbolic template detail")
	}
}

// TestServiceSymbolicErrors pins the template path's error contract:
// bounds naming a parameter the source does not declare are a 400-class
// rejection, as is a missing bound.
func TestServiceSymbolicErrors(t *testing.T) {
	svc := New(Config{Workers: 1, NoVerify: true})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  workloads.MatmulSym(),
		Options: CompileOptions{Bounds: map[string]int64{"n": 8, "bogus": 3}},
	})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("bogus bound accepted: %s", body)
	}
	resp, body = postJSON(t, client, ts.URL+"/compile", CompileRequest{
		Source:  workloads.MatmulSym(),
		Options: CompileOptions{Symbolic: true},
	})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("missing bound accepted: %s", body)
	}
}

// TestFabricTilesShareTemplate pins the cache-shape fix for ragged
// tile-kernel sweeps: serving one kernel family at many sizes through
// the symbolic path keeps the cache O(1) in the number of sizes — one
// template, zero per-shape compile-cache entries — where the concrete
// path would cold-compile and cache every size separately.  Partitioned
// runs resolve their tile kernel through the same template.
func TestFabricTilesShareTemplate(t *testing.T) {
	svc := New(Config{Workers: 2, NoVerify: true})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	src := workloads.MatmulSym()

	// A ragged sweep of tile-kernel sizes, all one kernel family.
	sizes := []int64{8, 14, 20, 26, 32, 38}
	keys := map[string]bool{}
	for _, n := range sizes {
		resp, body := postJSON(t, client, ts.URL+"/compile", CompileRequest{
			Source:  src,
			Options: CompileOptions{Bounds: map[string]int64{"n": n}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", n, resp.StatusCode, body)
		}
		var cr CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		keys[cr.Program] = true
	}
	if len(keys) != len(sizes) {
		t.Fatalf("%d distinct programs for %d sizes", len(keys), len(sizes))
	}
	tcs := svc.TemplateCacheStats()
	if tcs.Templates != 1 {
		t.Fatalf("%d templates resident after %d-size sweep, want 1 (O(1) in tile count)", tcs.Templates, len(sizes))
	}
	if entries := svc.CacheStats().Entries; entries != 0 {
		t.Fatalf("%d per-shape compile-cache entries after symbolic sweep, want 0", entries)
	}

	// A partitioned run whose tile kernel comes from the template: the
	// stitched output must match the plain-Go reference, with still only
	// the one template resident.
	const d = 16
	a, b := workloads.LargeMatmulData(d, d, d, 13)
	resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
		Source:  src,
		Options: CompileOptions{Bounds: map[string]int64{"n": 8}},
		Inputs:  map[string][]float64{"a": a, "bmat": b},
		Partition: &PartitionJSON{
			Workload: "matmul", M: d, K: d, N: d, Arrays: 2,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned symbolic run: status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	decodeBody(t, body, &rr)
	want := workloads.MatmulRectRef(a, b, d, d, d)
	got := rr.Outputs["c"]
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if !rr.Cached {
		t.Error("partitioned run's tile kernel was not served from the template cache")
	}
	if tcs := svc.TemplateCacheStats(); tcs.Templates != 1 {
		t.Fatalf("%d templates after partitioned run, want 1", tcs.Templates)
	}
}

// variant is a distinct template: MatmulSym under its own content
// address.
func variant(i int) string { return workloads.MatmulSym() + fmt.Sprintf("/* variant %d */\n", i) }

// instantiate asks tc for template src at n (no verification, so the
// probe compiles stay cheap).
func instantiate(t *testing.T, tc *TemplateCache, src string, n int64) string {
	t.Helper()
	_, key, _, _, err := tc.GetObserved(context.Background(), src, warp.Options{}, map[string]int64{"n": n}, nil)
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return key
}

// TestTemplateCacheBuildsTemplateOnce holds concurrent first requests
// for different bound vectors of one template at a gate: the template
// must be built once and shared, not built per request.
func TestTemplateCacheBuildsTemplateOnce(t *testing.T) {
	const callers = 4
	arrived := make(chan struct{}, callers) // one arrival per caller
	release := make(chan struct{})
	var builds atomic.Int32
	tc := NewTemplateCache(8, 64, func(src string, opts warp.Options) (*warp.Template, error) {
		builds.Add(1)
		arrived <- struct{}{}
		<-release
		return warp.CompileTemplate(src, opts)
	})
	// Every caller arrives either inside the template build or, calling
	// Done, waiting on another's.
	ctx := arrivalCtx{context.Background(), arrived}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			_, _, _, _, err := tc.GetObserved(ctx, workloads.MatmulSym(), warp.Options{}, map[string]int64{"n": n}, nil)
			errs <- err
		}(int64(8 + 6*i))
	}
	for i := 0; i < callers; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("template built %d times for %d concurrent first requests, want 1", n, callers)
	}
	if s := tc.Stats(); s.Templates != 1 || s.Programs != callers || s.Misses != callers {
		t.Errorf("stats = %+v, want 1 template, %d programs, %d misses", s, callers, callers)
	}
}

// TestTemplateCacheEvictionDropsPrograms proves evicting a template
// drops every program instantiated from it, each counted as an
// eviction.
func TestTemplateCacheEvictionDropsPrograms(t *testing.T) {
	tc := NewTemplateCache(1, 64, nil)
	k8 := instantiate(t, tc, variant(0), 8)
	k14 := instantiate(t, tc, variant(0), 14)
	other := instantiate(t, tc, variant(1), 8)
	for _, k := range []string{k8, k14} {
		if _, ok := tc.Lookup(k); ok {
			t.Errorf("program %s outlived its evicted template", k)
		}
	}
	if _, ok := tc.Lookup(other); !ok {
		t.Error("the resident template's program is missing")
	}
	if s := tc.Stats(); s.Templates != 1 || s.Programs != 1 || s.Evictions != 2 {
		t.Errorf("stats = %+v, want 1 template, 1 program, 2 evictions", s)
	}
}

// TestTemplateCacheLookupRefreshes proves Lookup refreshes both the
// template and the instantiation: the looked-up program survives the
// next template eviction and the next per-template eviction.
func TestTemplateCacheLookupRefreshes(t *testing.T) {
	tc := NewTemplateCache(2, 2, nil)
	a8 := instantiate(t, tc, variant(0), 8)
	a14 := instantiate(t, tc, variant(0), 14)
	b8 := instantiate(t, tc, variant(1), 8)
	if _, ok := tc.Lookup(a8); !ok {
		t.Fatal("a8 missing before eviction")
	}
	instantiate(t, tc, variant(2), 8)  // evicts template 1, not template 0
	instantiate(t, tc, variant(0), 20) // evicts a14, not a8
	for k, want := range map[string]bool{a8: true, a14: false, b8: false} {
		if _, ok := tc.Lookup(k); ok != want {
			t.Errorf("Lookup(%s) resident=%v, want %v", k, ok, want)
		}
	}
}
