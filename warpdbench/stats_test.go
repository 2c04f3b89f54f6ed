package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"warp/internal/service"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending: percentile must sort
	}
	for _, tc := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{10, 20}, 75); got != 17.5 {
		t.Errorf("interpolated p75 = %v, want 17.5", got)
	}
}

// The tail percentile must keep at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},      // not even p50 has ten beyond
		{42, 75},    // 10.5 beyond p75, 4.2 beyond p90
		{100, 90},   // exactly ten beyond p90
		{999, 90},   // 9.99 beyond p99: not enough
		{1000, 99},  // exactly ten beyond p99
		{60000, 99}, // the highest candidate wins
	} {
		if got := tailPercentile(tc.n, 50, 75, 90, 99); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// Every workload's fixed tail percentile has ten samples beyond it
	// at the smallest sample count its run produces.
	for _, w := range allWorkloads {
		minSamples := map[string]int{"paper-cold": 350, "cached-mix": 1000, "template-sweep": 100}[w.name]
		if tailPercentile(minSamples, w.tail) != w.tail {
			t.Errorf("%s: p%g has fewer than ten samples beyond it at %d samples", w.name, w.tail, minSamples)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8, 4) = %v, want 4", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {-1, 4}} {
		if got := geomean(xs); got != 0 {
			t.Errorf("geomean(%v) = %v, want 0", xs, got)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	for _, tc := range []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1e6, 1e6 * (1 + 5e-10), true},
		{1e6, 1e6 * (1 + 2e-9), false},
		{1e-12, 5e-10, true}, // absolute below magnitude 1
		{0, 2e-9, false},
	} {
		if got := approxEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("approxEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// A refused request (429) counts as a failure but not as a wrong
// output; a corrupted output counts as both.  Neither is dropped.
func TestFailureAccounting(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer busy.Close()
	s := &server{ts: busy, hc: busy.Client()}
	var tl tally
	if _, _, ok := s.call(&tl, "/run", []byte(`{}`)); ok {
		t.Fatal("a 429 reply was reported as success")
	}
	if tl.attempted != 1 || tl.failed != 1 || tl.wrong != 0 || tl.causes["http 429"] != 1 {
		t.Fatalf("after a 429: attempted %d failed %d wrong %d causes %v", tl.attempted, tl.failed, tl.wrong, tl.causes)
	}

	reply, err := json.Marshal(service.RunResponse{Outputs: map[string][]float64{"res": {1, 2, 3.5}}})
	if err != nil {
		t.Fatal(err)
	}
	tl.attempt()
	checkRun(&tl, "ok", reply, "res", []float64{1, 2, 3.5})
	tl.attempt()
	checkRun(&tl, "corrupt", reply, "res", []float64{1, 2, 3})
	tl.attempt()
	checkRun(&tl, "short", reply, "res", []float64{1, 2, 3.5, 4})
	tl.attempt()
	checkRun(&tl, "garbage", []byte("{"), "res", []float64{1})
	if tl.attempted != 5 || tl.failed != 4 || tl.wrong != 3 {
		t.Fatalf("attempted %d failed %d wrong %d, want 5, 4, 3", tl.attempted, tl.failed, tl.wrong)
	}
	if got := tl.failFrac(); got != 0.8 {
		t.Errorf("failFrac = %v, want 0.8", got)
	}
}

func TestCovered(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) [2]time.Time {
		return [2]time.Time{t0.Add(time.Duration(a)), t0.Add(time.Duration(b))}
	}
	// [0,10) ∪ [5,15) ∪ [20,30) ∪ [22,25) = 15 + 10
	if got := covered([][2]time.Time{at(20, 30), at(0, 10), at(22, 25), at(5, 15)}); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	// Each workload's reason is recorded beside its definition too.
	if len(cfg.Workloads) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(cfg.Workloads), len(allWorkloads))
	}
	for i, w := range cfg.Workloads {
		if i < len(allWorkloads) && (w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why) {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark defines %q (%q)",
				i, w.Name, w.Why, allWorkloads[i].name, allWorkloads[i].why)
		}
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range cfg.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range cfg.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// The short mode runs one tiny pass of each workload, untraced and
// traced: every output is correct and the result line carries exactly
// the metrics BENCHMARK.json declares.
func TestShortMode(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			res := run(w, 7, time.Second, traced, true)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed %d of %d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				}
			}
			for name, m := range res.Metrics {
				if !want[name] {
					t.Errorf("%s traced=%v: metric %s not declared in BENCHMARK.json", w.name, traced, name)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
				}
			}
		}
	}
}
