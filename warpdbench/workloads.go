package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"warp"
	"warp/internal/service"
	"warp/internal/workloads"
)

// workload is one traffic mix.  Every workload runs compile-and-run
// passes (pass.go) and a measured closed loop; the end-to-end metrics
// are the same names on each, measured on that workload's own traffic.
type workload struct {
	name string
	// why records the reason the workload exists (also in
	// BENCHMARK.json).
	why     string
	clients int     // closed-loop clients, each waiting for its reply
	tail    float64 // tail_ms percentile: the highest with ≥10 samples beyond it
	run     func(b *bench)
	// walk lists the programs the traced run's layer walk covers.
	walk func(b *bench) []program
}

var allWorkloads = []workload{
	{
		name: "paper-cold",
		// Every compile layer, verify, the fast-plan build and the 4 MB
		// JSON bodies do their full work at the sizes the paper's
		// Table 7-1 names; list-scheduled colorseg is the one program
		// that falls back to sim.
		why:     "Table 7-1 programs at paper size, pipelined and list-scheduled, cold verified compile then cold and warm runs on fresh servers: every compile layer, plan build and sim",
		clients: 1, tail: 90, run: paperCold,
		walk: func(b *bench) []program { return coldPrograms(b.short) },
	},
	{
		name: "cached-mix",
		// Every request hits the cache, so the compile layers do
		// nothing: the time goes to HTTP/JSON, cache lookup, pool
		// admission, fast execution and the fabric farm.  A
		// compile-layer change predicts no movement here.
		why:     "2 clients of cached /run, /batch and partitioned matmul: HTTP, cache lookup, pool, fast execution and fabric while the compile layers stay idle",
		clients: 2, tail: 99, run: cachedMix,
		walk: func(b *bench) []program { return mixPrograms(b.short) },
	},
	{
		name: "template-sweep",
		// The template cache's write path (template hits, then
		// instantiation inserts) and symbolic instantiation versus
		// concrete fallback, beside cached-mix's read-only path.
		why:     "/run with bounds drawn over cells and points on three symbolic templates: instantiation, fallback compiles and the template cache's write path",
		clients: 1, tail: 90, run: templateSweep,
		walk: sweepWalk,
	},
}

func workloadNames() string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- paper-cold ----

// coldPrograms is the paper-cold program set: Table 7-1 at paper size,
// or tiny sizes in short mode.
func coldPrograms(short bool) []program {
	if !short {
		return paperPrograms()
	}
	var ps []program
	for _, pipe := range []bool{true, false} {
		ps = append(ps, conv1dProg(3, 32, pipe), binopProg(8, 8, pipe), colorsegProg(8, 8, 4, pipe),
			mandelbrotProg(16, 4, pipe), polynomialProg(4, 16, pipe), matmulProg(4, pipe), fftProg(16, pipe))
	}
	return ps
}

func concreteItems(progs []program, rng *rand.Rand) []passItem {
	items := make([]passItem, len(progs))
	for i, p := range progs {
		items[i] = newPassItem(p, rng, p.src, service.CompileOptions{Pipeline: p.pipeline})
	}
	return items
}

// coldRounds is how many repeat rounds paper-cold measures after its
// pass.  paper-cold measures a fixed amount of work — one pass and eight
// rounds, about 30 s on a 2-CPU host — whatever --seconds says, so each
// run sends the same requests.
const coldRounds = 8

// paperCold measures one pass on a fresh server, so every compile
// misses the cache, then coldRounds rounds of repeat cold samples.
func paperCold(b *bench) {
	var items []passItem
	for rep := 0; rep < b.setupReps(); rep++ {
		start := b.setupStart(rep)
		b.calibrate()
		items = concreteItems(coldPrograms(b.short), rand.New(rand.NewSource(b.seed)))
		b.setupDone(start)
	}
	s := b.open()
	b.passes.runPass(s, items, &b.t)
	s.close()
	if !b.short {
		b.passes.repeatCold(b.open, items, &b.t, coldRounds)
	}
	b.lat = b.passes.lat
}

// coldPasses measures cold compile-and-run passes of cached-mix's and
// template-sweep's programs, each on a fresh server, for the first
// quarter of the measurement time (the closed loop gets the rest): a
// pass takes a fraction of a second, so every program's medians rest on
// dozens of samples spread over seconds of host drift.
func (b *bench) coldPasses(items []passItem) time.Duration {
	deadline := time.Now().Add(b.seconds / 4)
	for n := 0; n < 1 || (!b.short && time.Now().Before(deadline)); n++ {
		s := b.open()
		b.passes.runPass(s, items, &b.t)
		s.close()
	}
	return b.seconds - b.seconds/4
}

// ---- cached-mix ----

func mixPrograms(short bool) []program {
	if short {
		return []program{polynomialProg(4, 16, true), conv1dProg(3, 32, true), matmulProg(4, true), mandelbrotProg(16, 4, true)}
	}
	return []program{polynomialProg(10, 100, true), conv1dProg(9, 512, true), matmulProg(10, true),
		matmulProg(32, true), mandelbrotProg(32*32, 4, true)}
}

// mixReq is one prepared request of the cached mix with its check.
type mixReq struct {
	path  string
	body  []byte
	check func(reply []byte) error
}

// runCheck returns a check of a /run reply against a reference.
func runCheck(label, out string, want []float64) func([]byte) error {
	return func(reply []byte) error {
		var rr service.RunResponse
		if err := json.Unmarshal(reply, &rr); err != nil {
			return err
		}
		if err := check(rr.Outputs[out], want); err != nil {
			return fmt.Errorf("%s: %s%v", label, out, err)
		}
		return nil
	}
}

// mixVariants is how many seeded input sets each mix program has; a
// request picks one, so consecutive requests carry different inputs.
const mixVariants = 32

// cachedMix sets up by compiling every mix program and running it
// (which builds its fast plan), measures cold passes of the same, then
// a seeded mix from two clients in cycles of 16 /run by address, 3
// /batch of 4 runs and 1 partitioned matmul 40³ on 2 arrays.
func cachedMix(b *bench) {
	progs := mixPrograms(b.short)
	var s endpoint
	var items []passItem
	var singles [][]mixReq // per program
	var parts []mixReq
	for rep := 0; rep < b.setupReps(); rep++ {
		start := b.setupStart(rep)
		b.calibrate()
		if s != nil {
			s.close()
		}
		rng := rand.New(rand.NewSource(b.seed))
		items = concreteItems(progs, rng)
		s = b.open()
		var warm passAgg // compiles and warms every plan; not measured
		keys := warm.runPass(s, items, &b.t)
		singles, parts = make([][]mixReq, len(progs)), nil
		for i, p := range progs {
			for v := 0; v < mixVariants; v++ {
				in := p.inputs(rng)
				singles[i] = append(singles[i], mixReq{"/run", runByAddress(keys[p.label()], encodeInputs(in)),
					runCheck(p.label(), p.out, p.ref(in))})
			}
		}
		kernel := keys[progs[2].label()] // matmul 10 (4 in short mode) is the tile kernel
		d := 40
		if b.short {
			d = 8
		}
		for v := 0; v < 8; v++ {
			a, bm := workloads.LargeMatmulData(d, d, d, b.seed*100+int64(v))
			body, err := json.Marshal(service.RunRequest{Program: kernel,
				Inputs:    map[string][]float64{"a": a, "bmat": bm},
				Partition: &service.PartitionJSON{Workload: "matmul", M: d, K: d, N: d, Arrays: 2}})
			if err != nil {
				panic(err)
			}
			parts = append(parts, mixReq{"/run", body, runCheck("partitioned matmul", "c", workloads.MatmulRectRef(a, bm, d, d, d))})
		}
		b.setupDone(start)
	}
	defer s.close()
	loop := b.coldPasses(items)
	deadline := time.Now().Add(loop)
	if b.short {
		deadline = time.Now().Add(time.Second)
	}
	const clients = 2
	lats := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(c)))
			for time.Now().Before(deadline) {
				for _, req := range mixCycle(rng, singles, parts) {
					reply, lat, ok := s.call(&b.t, req.path, req.body)
					lats[c] = append(lats[c], took(lat))
					if ok {
						checkMix(&b.t, req, reply)
					}
					if !time.Now().Before(deadline) {
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, l := range lats {
		b.lat = append(b.lat, l...)
	}
}

// mixCycle returns one cycle of the cached mix, 20 requests in seeded
// order: 16 runs by address, 3 batches of 4 runs and 1 partitioned
// matmul.  The 28 runs visit the programs in turn (with a seeded input
// variant each), so every seed sends the same proportions.
func mixCycle(rng *rand.Rand, singles [][]mixReq, parts []mixReq) []mixReq {
	runs := make([]mixReq, 28)
	off := rng.Intn(len(singles))
	for i := range runs {
		vs := singles[(i+off)%len(singles)]
		runs[i] = vs[rng.Intn(len(vs))]
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	cycle := append([]mixReq(nil), runs[:16]...)
	for k := 0; k < 3; k++ {
		cycle = append(cycle, batch(runs[16+4*k:20+4*k]))
	}
	cycle = append(cycle, parts[rng.Intn(len(parts))])
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// itemError is a batch item the server failed (as opposed to one whose
// output is wrong).
type itemError struct{ msg string }

func (e itemError) Error() string { return e.msg }

// checkMix checks a cached-mix reply, counting a failed batch item as a
// failed request and a wrong output as an incorrect one.
func checkMix(t *tally, req mixReq, reply []byte) {
	err := req.check(reply)
	var ie itemError
	switch {
	case err == nil:
	case errors.As(err, &ie):
		t.fail("batch item", false, err.Error())
	default:
		t.fail("output", true, err.Error())
	}
}

// batch wraps runs into one /batch request whose check checks each.
func batch(items []mixReq) mixReq {
	var body bytes.Buffer
	body.WriteString(`{"requests":[`)
	for i, it := range items {
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(it.body)
	}
	body.WriteString(`]}`)
	return mixReq{"/batch", body.Bytes(), func(reply []byte) error {
		var br service.BatchResponse
		if err := json.Unmarshal(reply, &br); err != nil {
			return err
		}
		if len(br.Results) != len(items) {
			return fmt.Errorf("batch: %d results for %d requests", len(br.Results), len(items))
		}
		for i, it := range br.Results {
			if it.Error != "" {
				return itemError{fmt.Sprintf("batch item %d: %s", i, it.Error)}
			}
			raw, err := json.Marshal(it.Result)
			if err != nil {
				return err
			}
			if err := items[i].check(raw); err != nil {
				return err
			}
		}
		return nil
	}}
}

// ---- template-sweep ----

// sweepTemplate is one symbolic program the sweep draws bounds for.
type sweepTemplate struct {
	sym   string
	setup map[string]int64 // the bounds set-up requests
	// make returns the concrete program (inputs and reference) at bounds.
	make func(bounds map[string]int64) program
	// draw maps a point in [0,1)² to bounds: cells and size axes.
	draw func(u, v float64) map[string]int64
}

// sweepRange is the sweep's size range: cells 2..10 and points 16..512²
// for polynomial and conv1d, n 2..32 for matmul (tiny in short mode).
func sweepTemplates(short bool) []sweepTemplate {
	maxCells, minPts, maxPts, maxN := 10.0, 16.0, 512.0*512, 32.0
	if short {
		maxCells, maxPts, maxN = 4, 64, 6
	}
	cells := func(u float64) int64 { return 2 + int64(u*(maxCells-1)) }
	// Points are log-uniform: every size decade is drawn equally often.
	points := func(v float64) int64 { return int64(math.Round(minPts * math.Pow(maxPts/minPts, v))) }
	return []sweepTemplate{
		{
			sym: workloads.PolynomialSym(), setup: map[string]int64{"ncoef": 10, "npoints": 100},
			make: func(bd map[string]int64) program {
				return polynomialProg(int(bd["ncoef"]), int(bd["npoints"]), true)
			},
			draw: func(u, v float64) map[string]int64 {
				return map[string]int64{"ncoef": cells(u), "npoints": points(v)}
			},
		},
		{
			sym: workloads.Conv1DSym(), setup: map[string]int64{"k": 9, "n": 512},
			make: func(bd map[string]int64) program { return conv1dProg(int(bd["k"]), int(bd["n"]), true) },
			draw: func(u, v float64) map[string]int64 {
				return map[string]int64{"k": cells(u), "n": points(v)}
			},
		},
		{
			sym: workloads.MatmulSym(), setup: map[string]int64{"n": 10},
			make: func(bd map[string]int64) program { return matmulProg(int(bd["n"]), true) },
			draw: func(u, _ float64) map[string]int64 { return map[string]int64{"n": 2 + int64(u*(maxN-1))} },
		},
	}
}

// sweepDraw is one measured template-sweep request.
type sweepDraw struct {
	tmpl   int
	bounds map[string]int64
}

// drawer produces the sweep's bound vectors: the templates in seeded
// turn, each walking a Halton sequence (bases 3 and 2) over its
// (cells, size) square, shifted by a seeded offset.  The points fill
// the square evenly, so every seed draws nearly the same distribution
// of sizes and the run-to-run spread stays small.
type drawer struct {
	rng      *rand.Rand
	tmpls    []sweepTemplate
	next     []int        // Halton index per template
	off      [][2]float64 // seeded shift per template
	order    []int
	orderPos int
}

func newDrawer(seed int64, tmpls []sweepTemplate) *drawer {
	d := &drawer{rng: rand.New(rand.NewSource(seed)), tmpls: tmpls, next: make([]int, len(tmpls))}
	for range tmpls {
		d.off = append(d.off, [2]float64{d.rng.Float64(), d.rng.Float64()})
	}
	return d
}

// radicalInverse is the van der Corput radical inverse of i in base.
func radicalInverse(i, base int) float64 {
	inv, f := 0.0, 1.0/float64(base)
	for ; i > 0; i /= base {
		inv += float64(i%base) * f
		f /= float64(base)
	}
	return inv
}

// draw returns the next bound vector that set-up did not request.
func (d *drawer) draw() sweepDraw {
	for {
		if d.orderPos == len(d.order) {
			d.order, d.orderPos = d.rng.Perm(len(d.tmpls)), 0
		}
		ti := d.order[d.orderPos]
		d.orderPos++
		d.next[ti]++
		i := d.next[ti]
		u := math.Mod(radicalInverse(i, 3)+d.off[ti][0], 1)
		v := math.Mod(radicalInverse(i, 2)+d.off[ti][1], 1)
		t := d.tmpls[ti]
		if bd := t.draw(u, v); !sameBounds(bd, t.setup) {
			return sweepDraw{ti, bd}
		}
	}
}

func sameBounds(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func symOptions(bounds map[string]int64) service.CompileOptions {
	return service.CompileOptions{Pipeline: true, Bounds: bounds}
}

func (t sweepTemplate) setupItem(rng *rand.Rand) passItem {
	return newPassItem(t.make(t.setup), rng, t.sym, symOptions(t.setup))
}

// templateSweep sets up by compiling each template at its set-up
// bounds (which builds the template and fits its class) and running it
// twice, measures cold passes of the same, then /run requests with
// drawn bounds from one client.  Afterwards a seeded sample of the
// measured draws is checked with Template.Check: the instantiation must
// match a concrete compile.
func templateSweep(b *bench) {
	tmpls := sweepTemplates(b.short)
	var s endpoint
	var items []passItem
	for rep := 0; rep < b.setupReps(); rep++ {
		start := b.setupStart(rep)
		b.calibrate()
		if s != nil {
			s.close()
		}
		rng := rand.New(rand.NewSource(b.seed))
		s = b.open()
		items = make([]passItem, len(tmpls))
		for i, t := range tmpls {
			items[i] = t.setupItem(rng)
		}
		var warm passAgg
		warm.runPass(s, items, &b.t)
		b.setupDone(start)
	}
	defer s.close()
	loop := b.coldPasses(items)
	deadline := time.Now().Add(loop)
	dr := newDrawer(b.seed+1, tmpls)
	rng := rand.New(rand.NewSource(b.seed + 2))
	var done []sweepDraw
	for len(done) == 0 || time.Now().Before(deadline) {
		d := dr.draw()
		t := tmpls[d.tmpl]
		p := t.make(d.bounds)
		in := p.inputs(rng)
		body, err := json.Marshal(service.RunRequest{Source: t.sym, Options: symOptions(d.bounds), Inputs: in})
		if err != nil {
			panic(err)
		}
		want := p.ref(in)
		reply, lat, ok := s.call(&b.t, "/run", body)
		b.lat = append(b.lat, took(lat))
		if ok {
			checkRun(&b.t, p.label(), reply, p.out, want)
		}
		done = append(done, d)
		if b.short && len(done) == 3*len(tmpls) {
			break
		}
	}
	checkTemplates(b, tmpls, done, rng)
}

// sweepWalk is the template-sweep programs the layer walk covers: each
// template at its set-up bounds, then the first measured draws.
func sweepWalk(b *bench) []program {
	tmpls := sweepTemplates(b.short)
	var ps []program
	for _, t := range tmpls {
		ps = append(ps, t.make(t.setup))
	}
	dr := newDrawer(b.seed+1, tmpls)
	for i := 0; i < 2*len(tmpls); i++ {
		d := dr.draw()
		ps = append(ps, tmpls[d.tmpl].make(d.bounds))
	}
	return ps
}

// checkTemplates runs Template.Check on a seeded sample of the measured
// draws: the instantiation's accept/reject answer and its bits must
// match a concrete compile of the substituted source.
func checkTemplates(b *bench, tmpls []sweepTemplate, done []sweepDraw, rng *rand.Rand) {
	const sample = 3
	built := map[int]*warp.Template{}
	for i := 0; i < sample && len(done) > 0; i++ {
		d := done[rng.Intn(len(done))]
		b.t.attempt()
		t, ok := built[d.tmpl]
		if !ok {
			var err error
			t, err = warp.CompileTemplate(tmpls[d.tmpl].sym, warp.Options{Pipeline: true, Verify: true})
			if err != nil {
				b.t.fail("artifact", true, err.Error())
				continue
			}
			built[d.tmpl] = t
		}
		if err := t.Check(d.bounds); err != nil {
			b.t.fail("artifact", true, err.Error())
		}
	}
}
