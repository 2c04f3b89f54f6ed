package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"warp"
	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/hostgen"
	"warp/internal/interp"
	"warp/internal/service"
	"warp/internal/sim"
	"warp/internal/symbolic"
	"warp/internal/workloads"
)

// walkStats accumulates the layer walk: exact counts, allocation
// volumes and the executor measurements per-layer metrics derive from.
type walkStats struct {
	counts                   map[string]float64
	instantiateMS            []float64
	instCalls, instFallbacks int
	execNS, execOps          int64 // fast executor time and ops × cells
	simNS, simCellCycles     int64
	hostAlloc, planAlloc     float64 // MiB
}

func (w *walkStats) report(m metrics) {
	for _, name := range []string{"opt.rewrites", "cellgen.ii_attempts", "cellgen.cell_instrs", "skew.ops",
		"iugen.iu_instrs", "hostgen.words", "verify.propositions", "fastexec.plan_ops",
		"sim.cycles_measured", "sim.cycles_modeled", "symbolic.probe_compiles", "fabric.tiles",
		"bench.fingerprint_matches"} {
		m.set(name, w.counts[name], "count")
	}
	m.set("hostgen.alloc_mb", w.hostAlloc, "MiB")
	m.set("fastexec.plan_alloc_mb", w.planAlloc, "MiB")
	m.set("fastexec.ns_per_op", float64(w.execNS)/float64(max(w.execOps, 1)), "ns")
	m.set("sim.ns_per_cell_cycle", float64(w.simNS)/float64(max(w.simCellCycles, 1)), "ns")
}

// totalAllocMB returns the bytes allocated so far by the process.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// walk sends each of the workload's programs through every layer it
// reaches, in production order, with a span around each call:
// the compile layers one by one (layers.go), the fast-plan build and
// fast execution, the simulator, symbolic template instantiation at the
// program's own bounds, the template cache, and the fabric for matmul
// kernels.  Every artifact and output is checked: the layer-by-layer
// compile must be driver.Fingerprint-equal to driver.Compile, fast and
// sim outputs must match the reference, sim's measured cycles must
// equal the modeled count, and an instantiation must equal the concrete
// compile.
func walk(b *bench, tr *tracer, wl workload) *walkStats {
	w := &walkStats{counts: map[string]float64{}}
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 { // the server's compile-worker policy
		workers = 4
	}
	rng := rand.New(rand.NewSource(b.seed + 3))
	tmpls := map[string]*symbolic.Template{}
	tcache := service.NewTemplateCache(128, 64, nil)
	for _, p := range wl.walk(b) {
		w.program(b, tr, p, rng, workers, tmpls, tcache)
	}
	return w
}

func (w *walkStats) program(b *bench, tr *tracer, p program, rng *rand.Rand, workers int,
	tmpls map[string]*symbolic.Template, tcache *service.TemplateCache) {
	fail := func(cause string, err error) { b.t.fail(cause, true, p.label()+": "+err.Error()) }
	opts := driver.Options{Pipeline: p.pipeline, Verify: true, CompileWorkers: workers}

	b.t.attempt()
	root := tr.begin("walk.compile", -1)
	c, err := layerCompile(tr, root, p.src, opts, workers)
	tr.end(root)
	ref, rerr := driver.Compile(p.src, opts)
	switch {
	case err != nil || rerr != nil:
		if (err == nil) != (rerr == nil) {
			fail("artifact", fmt.Errorf("layer-by-layer compile says %v, driver.Compile says %v", err, rerr))
		}
		return
	case driver.Fingerprint(c) != driver.Fingerprint(ref):
		fail("artifact", fmt.Errorf("layer-by-layer artifact differs from driver.Compile's"))
		return
	}
	w.counts["bench.fingerprint_matches"]++
	st := c.Sched.Totals()
	w.counts["opt.rewrites"] += float64(c.OptStats.Total())
	w.counts["cellgen.ii_attempts"] += float64(st.Attempts)
	w.counts["cellgen.cell_instrs"] += float64(c.Cell.NumInstrs())
	w.counts["skew.ops"] += float64(st.SkewOps)
	w.counts["iugen.iu_instrs"] += float64(c.IU.NumInstrs())
	for _, seq := range c.Host.In {
		w.counts["hostgen.words"] += float64(len(seq))
	}
	for _, seq := range c.Host.Out {
		w.counts["hostgen.words"] += float64(len(seq))
	}
	w.counts["verify.propositions"] += float64(c.Verified.Checked)
	a0 := totalAllocMB()
	if _, err := hostgen.GenerateParallel(c.Cell, workers); err == nil {
		w.hostAlloc += totalAllocMB() - a0
	}

	in := p.inputs(rng)
	want := p.ref(in)
	lead := c.IUGen.Prologue + 1
	a0 = totalAllocMB()
	id := tr.begin("fastexec.plan", -1)
	plan, perr := fastexec.Compile(fastexec.Program{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew, Lead: lead})
	tr.end(id)
	if perr == nil { // a program past the trace cap has no plan and runs on sim
		b.t.attempt()
		w.planAlloc += totalAllocMB() - a0
		w.counts["fastexec.plan_ops"] += float64(plan.Ops())
		mem, err := interp.BuildHostMem(c.Info, in)
		if err != nil {
			fail("output", err)
			return
		}
		id := tr.begin("fastexec.exec", -1)
		start := time.Now()
		_, err = plan.Execute(mem, fastexec.ExecConfig{})
		w.execNS += time.Since(start).Nanoseconds()
		tr.end(id)
		w.execOps += int64(plan.Ops()) * int64(c.Cells)
		if err == nil {
			err = check(interp.ExtractOutputs(c.Info, mem)[p.out], want)
		}
		if err != nil {
			fail("output", fmt.Errorf("fast: %w", err))
		}
	}

	b.t.attempt()
	mem, err := interp.BuildHostMem(c.Info, in)
	if err != nil {
		fail("output", err)
		return
	}
	id = tr.begin("sim.run", -1)
	start := time.Now()
	ss, err := sim.Run(sim.Config{Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew, Lead: lead, HostMem: mem})
	w.simNS += time.Since(start).Nanoseconds()
	tr.end(id)
	if err == nil {
		err = check(interp.ExtractOutputs(c.Info, mem)[p.out], want)
	}
	if err != nil {
		fail("output", fmt.Errorf("sim: %w", err))
		return
	}
	w.simCellCycles += ss.Cycles * int64(c.Cells)
	w.counts["sim.cycles_measured"] += float64(ss.Cycles)
	w.counts["sim.cycles_modeled"] += float64(c.ModeledCycles())
	if ss.Cycles != c.ModeledCycles() {
		fail("artifact", fmt.Errorf("sim measured %d cycles, modeled %d", ss.Cycles, c.ModeledCycles()))
	}

	if p.tmpl != "" {
		w.symbolic(b, tr, p, ref, opts, tmpls, tcache)
	}
	if strings.HasPrefix(p.name, "matmul-") && p.bounds["n"] >= 8 {
		w.fabric(b, tr, p, workers)
	}
}

// symbolic instantiates the program's template at its bounds twice —
// the first call fits the class when nobody has yet — and once through
// a template cache, checking each artifact against the concrete one.
func (w *walkStats) symbolic(b *bench, tr *tracer, p program, ref *driver.Compiled, opts driver.Options,
	tmpls map[string]*symbolic.Template, tcache *service.TemplateCache) {
	key := fmt.Sprintf("%v %s", p.pipeline, p.tmpl)
	tm := tmpls[key]
	b.t.attempt() // each instantiation, and the template cache get, is an operation
	if tm == nil {
		id := tr.begin("symbolic.template", -1)
		var err error
		tm, err = symbolic.CompileTemplate(p.tmpl, opts)
		tr.end(id)
		if err != nil {
			b.t.fail("artifact", true, p.label()+": template: "+err.Error())
			return
		}
		tmpls[key] = tm
	}
	before := tm.Stats().ProbeCompiles
	for i := 0; i < 2; i++ {
		if i > 0 {
			b.t.attempt()
		}
		start := time.Now()
		inst, det, err := tm.InstantiateObserved(p.bounds, nil)
		end := time.Now()
		w.instCalls++
		if err != nil {
			b.t.fail("artifact", true, p.label()+": instantiate: "+err.Error())
			return
		}
		// The call that fits the class is class fitting; the rest are
		// instantiations (or fallbacks) proper.
		if det.ClassBuilt {
			tr.add("symbolic.class_fit", -1, start, end)
		} else {
			tr.add("symbolic.instantiate", -1, start, end)
			w.instantiateMS = append(w.instantiateMS, ms(end.Sub(start)))
		}
		if !det.Symbolic {
			w.instFallbacks++
		}
		if driver.Fingerprint(inst) != driver.Fingerprint(ref) {
			b.t.fail("artifact", true, p.label()+": instantiation differs from the concrete compile")
		}
	}
	w.counts["symbolic.probe_compiles"] += float64(tm.Stats().ProbeCompiles - before)
	b.t.attempt()
	id := tr.begin("service.template_get", -1)
	_, _, _, _, err := tcache.GetObserved(context.Background(), p.tmpl,
		warp.Options{Pipeline: p.pipeline, Verify: true, CompileWorkers: opts.CompileWorkers}, p.bounds, nil)
	tr.end(id)
	if err != nil {
		b.t.fail("artifact", true, p.label()+": template cache: "+err.Error())
	}
}

// fabric runs a 40³ matmul partitioned across 2 arrays on the kernel.
func (w *walkStats) fabric(b *bench, tr *tracer, p program, workers int) {
	b.t.attempt()
	prog, err := warp.Compile(p.src, warp.Options{Pipeline: p.pipeline, Verify: true, CompileWorkers: workers})
	if err != nil {
		b.t.fail("artifact", true, p.label()+": "+err.Error())
		return
	}
	const d = 40
	a, bm := workloads.LargeMatmulData(d, d, d, b.seed)
	id := tr.begin("fabric.job", -1)
	out, fs, err := prog.RunPartitioned(warp.RunConfig{Arrays: 2, TileRetries: 1}, warp.MatmulProblem(d, d, d, a, bm))
	tr.end(id)
	if err == nil {
		err = check(out["c"], workloads.MatmulRectRef(a, bm, d, d, d))
	}
	if err != nil {
		b.t.fail("output", true, p.label()+": fabric: "+err.Error())
		return
	}
	w.counts["fabric.tiles"] += float64(fs.Tiles)
}
