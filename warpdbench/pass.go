package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"warp/internal/service"
)

// passItem is one program of a compile-and-run pass: a cold /compile,
// a cold /run by address (the first, which builds the fast plan), then
// warm /runs, each on new seeded inputs.
type passItem struct {
	label   string
	heavy   bool
	compile []byte
	out     string
	inputs  [3]json.RawMessage // the cold run's, then two the warm runs alternate
	want    [3][]float64
}

// warmRuns is how many warm runs a light program gets per pass,
// alternating its two warm input sets, so its warm latency is a median
// of several samples; a heavy one gets a single warm run.
const warmRuns = 5

// newPassItem draws the program's input sets and computes their
// references.  src and opts are what /compile receives: the concrete
// source, or the symbolic form with bounds.
func newPassItem(p program, rng *rand.Rand, src string, opts service.CompileOptions) passItem {
	it := passItem{label: p.label(), heavy: p.heavy, compile: compileBody(src, opts), out: p.out}
	for i := range it.inputs {
		in := p.inputs(rng)
		it.inputs[i] = encodeInputs(in)
		it.want[i] = p.ref(in)
	}
	return it
}

// passAgg accumulates the pass measurements of one benchmark run.
type passAgg struct {
	compile, coldRun, warmRun map[string][]sample // per program
	passes                    [][]sample          // per pass: each program's compile, cold run and first warm run
	resident                  []float64           // MiB held per pass
	lat                       []sample            // every pass request
}

// runPass sends every item, in order, to a server that starts empty,
// records the latencies and returns the program addresses by label.
// The live heap is measured before and after, so resident counts what
// the cached programs (and their fast plans) hold.
func (a *passAgg) runPass(s endpoint, items []passItem, t *tally) map[string]string {
	if a.compile == nil {
		a.compile, a.coldRun, a.warmRun = map[string][]sample{}, map[string][]sample{}, map[string][]sample{}
	}
	keys := map[string]string{}
	before := heapMB()
	var pass []sample
	for _, it := range items {
		warm := warmRuns
		if it.heavy {
			warm = 1
		}
		key, first := a.sample(s, it, t, warm)
		pass = append(pass, first...)
		if key != "" {
			keys[it.label] = key
		}
	}
	a.passes = append(a.passes, pass)
	a.resident = append(a.resident, heapMB()-before)
	return keys
}

// sample sends one program's cold /compile, then (unless warm < 0) a
// cold /run and warm warm /runs, and records their latencies.  It
// returns the program's address and the latencies of its compile, cold
// run and first warm run.
func (a *passAgg) sample(s endpoint, it passItem, t *tally, warm int) (key string, first []sample) {
	send := func(path string, body []byte) ([]byte, sample, bool) {
		reply, lat, ok := s.call(t, path, body)
		sm := took(lat)
		a.lat = append(a.lat, sm)
		return reply, sm, ok
	}
	reply, lat, ok := send("/compile", it.compile)
	first = append(first, lat)
	if !ok {
		return "", first
	}
	a.compile[it.label] = append(a.compile[it.label], lat)
	var cr service.CompileResponse
	if err := json.Unmarshal(reply, &cr); err != nil {
		t.fail("output", true, it.label+": bad compile reply: "+err.Error())
		return "", first
	}
	if warm < 0 {
		return cr.Program, first
	}
	if reply, lat, ok := send("/run", runByAddress(cr.Program, it.inputs[0])); ok {
		first = append(first, lat)
		a.coldRun[it.label] = append(a.coldRun[it.label], lat)
		checkRun(t, it.label, reply, it.out, it.want[0])
	}
	for k := 0; k < warm; k++ {
		in := 1 + k%2
		reply, lat, ok := send("/run", runByAddress(cr.Program, it.inputs[in]))
		if k == 0 {
			first = append(first, lat)
		}
		if !ok {
			continue
		}
		a.warmRun[it.label] = append(a.warmRun[it.label], lat)
		checkRun(t, it.label, reply, it.out, it.want[in])
	}
	return cr.Program, first
}

// repeatCold adds rounds of cold samples on fresh endpoints: a cold
// /compile of every program, plus a cold /run and one warm /run of the
// light ones.  One sample per program per pass is too few to hold a
// median steady against scheduling noise on a shared host; the number
// of rounds is fixed, so every run measures the same mix of requests.
func (a *passAgg) repeatCold(open func() endpoint, items []passItem, t *tally, rounds int) {
	for round := 0; round < rounds; round++ {
		for _, it := range items {
			s := open()
			warm := 1
			if it.heavy {
				warm = -1 // compile only
			}
			a.sample(s, it, t, warm)
			s.close()
		}
	}
}

// perProgram is the geometric mean over programs of each program's
// median latency.
func perProgram(m map[string][]sample, norm func(sample) float64) float64 {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	meds := make([]float64, 0, len(names))
	for _, name := range names {
		meds = append(meds, median(values(m[name], norm)))
	}
	return geomean(meds)
}

// report adds the pass metrics, timings normalized by norm.
func (a *passAgg) report(m metrics, norm func(sample) float64) {
	m.set("cold_compile_ms", perProgram(a.compile, norm), "ms")
	m.set("cold_run_ms", perProgram(a.coldRun, norm), "ms")
	m.set("warm_run_ms", perProgram(a.warmRun, norm), "ms")
	totals := make([]float64, len(a.passes))
	for i, p := range a.passes {
		totals[i] = sum(values(p, norm)) / 1e3
	}
	m.set("pass_s", median(totals), "s")
	m.set("resident_mb", median(a.resident), "MiB")
	names := make([]string, 0, len(a.compile))
	for name := range a.compile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "warpdbench: %-32s compile %9.2f ms  cold run %9.2f ms  warm run %9.2f ms\n",
			name, median(values(a.compile[name], norm)), median(values(a.coldRun[name], norm)), median(values(a.warmRun[name], norm)))
	}
}
