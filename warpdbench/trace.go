package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"warp"
	"warp/internal/service"
)

// replay is the traced run's stand-in for warpd: it serves the same
// request bodies in-process through the service layer's public pieces
// — JSON decode, service.Cache, service.TemplateCache, service.Pool,
// warp.Program.RunWith / RunPartitioned, JSON encode — with the default
// Config's sizes and policies, wrapping a span around each call.  The
// HTTP transport, flight recorder, progress hub and metrics registry
// are not replayed.
type replay struct {
	tr    *tracer
	cache *service.Cache
	tmpls *service.TemplateCache
	pool  *service.Pool
	opts  warp.Options

	mu     sync.Mutex
	parent int // the cache span compile callbacks attach to
	st     *replayStats
}

// replayStats are the counters the service layer metrics come from,
// shared by every replay endpoint of one traced run.
type replayStats struct {
	mu                   sync.Mutex
	cacheGets, cacheHits int
	tmplGets, tmplHits   int
	admits, rejects      int
	runNS, execNS        int64 // RunWith spans and the executor time inside them
	simNS                int64 // executor time on the sim backend
	runs                 int
	// Template-cache misses served symbolically and by fallback.
	tmplInsts, tmplFallbacks int
}

func newReplay(tr *tracer, st *replayStats) *replay {
	r := &replay{tr: tr, st: st, pool: service.NewPool(4, 64), parent: -1}
	// The server's policy: verify every compile; compile workers are
	// GOMAXPROCS capped at the pool's 4 workers.
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	r.opts = warp.Options{Verify: true, CompileWorkers: workers}
	r.cache = service.NewCache(128, func(src string, o warp.Options) (*warp.Program, error) {
		id := tr.begin("driver.compile", r.cur())
		defer tr.end(id)
		return warp.Compile(src, o)
	})
	r.tmpls = service.NewTemplateCache(128, 64, func(src string, o warp.Options) (*warp.Template, error) {
		id := tr.begin("symbolic.template", r.cur())
		defer tr.end(id)
		return warp.CompileTemplate(src, o)
	})
	return r
}

func (r *replay) cur() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parent
}

func (r *replay) close() {
	r.pool.Close()
	ts := r.tmpls.Stats()
	r.st.mu.Lock()
	r.st.tmplInsts += int(ts.Instantiations)
	r.st.tmplFallbacks += int(ts.Fallbacks)
	r.st.mu.Unlock()
}

func (r *replay) call(t *tally, path string, body []byte) ([]byte, time.Duration, bool) {
	t.attempt()
	start := time.Now()
	root := r.tr.begin("request", -1)
	reply, err := r.serve(root, path, body)
	r.tr.end(root)
	lat := time.Since(start)
	if err != nil {
		cause := "error"
		switch {
		case errors.Is(err, service.ErrBusy):
			cause = fmt.Sprintf("http %d", http.StatusTooManyRequests)
		case errors.Is(err, context.DeadlineExceeded):
			cause = fmt.Sprintf("http %d", http.StatusGatewayTimeout)
		}
		t.fail(cause, false, path+": "+err.Error())
		return nil, lat, false
	}
	return reply, lat, true
}

func (r *replay) span(name string, parent int, f func() error) error {
	id := r.tr.begin(name, parent)
	err := f()
	r.tr.end(id)
	return err
}

// decode is the server's body decoding: unknown fields are an error.
func (r *replay) decode(parent int, body []byte, v any) error {
	return r.span("service.decode", parent, func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	})
}

func (r *replay) encode(parent int, v any) (out []byte, err error) {
	err = r.span("service.encode", parent, func() error { out, err = json.Marshal(v); return err })
	return out, err
}

func (r *replay) serve(root int, path string, body []byte) ([]byte, error) {
	switch path {
	case "/compile":
		var req service.CompileRequest
		if err := r.decode(root, body, &req); err != nil {
			return nil, err
		}
		prog, key, hit, detail, err := r.getProgram(root, req.Source, req.Options)
		if err != nil {
			return nil, err
		}
		resp := service.CompileResponse{Program: key, Cached: hit, Module: prog.Metrics().Name,
			Cells: prog.Cells(), Skew: prog.Skew(), Template: detail}
		for _, p := range prog.Params() {
			resp.Params = append(resp.Params, service.ParamJSON{Name: p.Name, Out: p.Out, Size: p.Size})
		}
		return r.encode(root, resp)
	case "/run":
		var req service.RunRequest
		if err := r.decode(root, body, &req); err != nil {
			return nil, err
		}
		resp, err := r.runOne(root, &req)
		if err != nil {
			return nil, err
		}
		return r.encode(root, resp)
	case "/batch":
		var req service.BatchRequest
		if err := r.decode(root, body, &req); err != nil {
			return nil, err
		}
		items := make([]service.BatchItem, len(req.Requests))
		var wg sync.WaitGroup
		for i := range req.Requests {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := r.runOne(root, &req.Requests[i])
				if err != nil {
					items[i].Error = err.Error()
					return
				}
				items[i].Result = resp
			}(i)
		}
		wg.Wait()
		return r.encode(root, service.BatchResponse{Results: items})
	}
	return nil, fmt.Errorf("unknown path %s", path)
}

// getProgram resolves source through the template cache (with bounds)
// or the compile cache, as the server does.
func (r *replay) getProgram(root int, src string, o service.CompileOptions) (prog *warp.Program, key string, hit bool, detail *warp.TemplateDetail, err error) {
	opts := r.opts
	opts.Pipeline, opts.NoOptimize, opts.Cells = o.Pipeline, o.NoOptimize, o.Cells
	// A miss compiles inside the cache; the compile callbacks hang their
	// spans under the cache span, so its self time is the lookup alone.
	enter := func(name string) int {
		id := r.tr.begin(name, root)
		r.mu.Lock()
		r.parent = id
		r.mu.Unlock()
		return id
	}
	if o.Symbolic || len(o.Bounds) > 0 {
		id := enter("service.template_get")
		prog, key, hit, detail, err = r.tmpls.GetObserved(context.Background(), src, opts, o.Bounds, nil)
		r.tr.end(id)
		r.st.mu.Lock()
		r.st.tmplGets++
		if hit {
			r.st.tmplHits++
		}
		r.st.mu.Unlock()
		return
	}
	id := enter("service.cache_get")
	prog, key, hit, err = r.cache.GetObserved(context.Background(), src, opts, nil)
	r.tr.end(id)
	r.countGet(hit)
	return
}

func (r *replay) countGet(hit bool) {
	r.st.mu.Lock()
	r.st.cacheGets++
	if hit {
		r.st.cacheHits++
	}
	r.st.mu.Unlock()
}

// runOne serves one run request: resolve, admit, execute.
func (r *replay) runOne(root int, req *service.RunRequest) (*service.RunResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var prog *warp.Program
	key, hit := req.Program, true
	if req.Program != "" {
		var ok bool
		r.span("service.cache_get", root, func() error {
			if prog, ok = r.cache.Lookup(req.Program); !ok {
				prog, ok = r.tmpls.Lookup(req.Program)
			}
			return nil
		})
		r.countGet(ok)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", req.Program)
		}
	} else {
		var err error
		prog, key, hit, _, err = r.getProgram(root, req.Source, req.Options)
		if err != nil {
			return nil, err
		}
	}
	var resp *service.RunResponse
	poolSpan := r.tr.begin("service.pool", root)
	queued := time.Now()
	err := r.pool.Do(ctx, func(ctx context.Context) error {
		r.tr.add("service.queue_wait", poolSpan, queued, time.Now())
		if req.Partition != nil {
			return r.runPartitioned(ctx, poolSpan, prog, req, key, hit, &resp)
		}
		runSpan := r.tr.begin("driver.run", poolSpan)
		start := time.Now()
		out, rs, err := prog.RunWith(warp.RunConfig{Context: ctx, Backend: req.Backend, MaxCycles: req.MaxCycles}, req.Inputs)
		runNS := time.Since(start).Nanoseconds()
		r.tr.end(runSpan)
		if err != nil {
			return err
		}
		r.st.mu.Lock()
		r.st.runs++
		r.st.runNS += runNS
		r.st.execNS += rs.Decision.ActualWallNS
		if rs.Backend == warp.BackendSim {
			r.st.simNS += rs.Decision.ActualWallNS
		}
		r.st.mu.Unlock()
		resp = &service.RunResponse{Program: key, Cached: hit, Outputs: out, Decision: rs.Decision,
			Stats: service.RunStatsJSON{Cycles: rs.Cycles, Backend: rs.Backend, MaxQueue: rs.MaxQueue,
				MaxQueueAt: rs.MaxQueueAt, AddUtilization: rs.AddUtilization, MulUtilization: rs.MulUtilization}}
		return nil
	})
	r.tr.end(poolSpan)
	r.st.mu.Lock()
	r.st.admits++
	if errors.Is(err, service.ErrBusy) {
		r.st.rejects++
	}
	r.st.mu.Unlock()
	return resp, err
}

// runPartitioned farms a partitioned matmul request (the only kind the
// workloads send) across the fabric.
func (r *replay) runPartitioned(ctx context.Context, parent int, prog *warp.Program, req *service.RunRequest, key string, hit bool, resp **service.RunResponse) error {
	p := req.Partition
	var ins []warp.ParamInfo
	for _, pi := range prog.Params() {
		if !pi.Out {
			ins = append(ins, pi)
		}
	}
	if p.Workload != "matmul" || len(ins) != 2 {
		return fmt.Errorf("replay: unsupported partition %q", p.Workload)
	}
	prob := warp.MatmulProblem(p.M, p.K, p.N, req.Inputs[ins[0].Name], req.Inputs[ins[1].Name])
	id := r.tr.begin("fabric.job", parent)
	out, fs, err := prog.RunPartitioned(warp.RunConfig{Context: ctx, Arrays: p.Arrays, TileRetries: 1}, prob)
	r.tr.end(id)
	if err != nil {
		return err
	}
	*resp = &service.RunResponse{Program: key, Cached: hit, Outputs: out, Decision: fs.Decision,
		Stats:  service.RunStatsJSON{Cycles: fs.MakespanCycles, Backend: fs.Backend},
		Fabric: &service.FabricJSON{Tiles: fs.Tiles, Arrays: fs.Arrays, AggregateCycles: fs.AggregateCycles}}
	return nil
}

// traceRun is the --trace 1 run.  It first walks the workload's
// programs through every layer they reach (walk.go), then replays the
// workload's own traffic in-process three times — an untimed warm-up,
// then tracing off, then on — and reports per-layer self times and counts plus the tracing overhead
// (traced minus untraced replay time per request, host-normalized).
// Layer times are plain milliseconds.
func traceRun(b *bench, wl workload) {
	tr := &tracer{on: true}
	id := tr.begin("driver.costmodel", -1)
	b.calibrate()
	tr.end(id)

	w := walk(b, tr, wl)

	// The measured replays run at different times, so their difference
	// is taken in host-normalized time (probe.go), or host drift would
	// swamp the tracing overhead.  The warm-up pays the one-time costs
	// (heap growth, first runs) that would otherwise fall on whichever
	// measured replay ran first.
	probe := startProbe()
	st := &replayStats{}
	// gcs counts the collections during a replay: the span buffer adds
	// to the live heap, which lets the collector run less often.
	replayOnce := func(tr *tracer) (rb *bench, gcs uint32) {
		rb = &bench{seed: b.seed, seconds: b.seconds, short: b.short, m: metrics{},
			open: func() endpoint { return newReplay(tr, st) }}
		before := numGC()
		wl.run(rb)
		b.t.merge(&rb.t)
		return rb, numGC() - before
	}
	replayOnce(&tracer{})
	*st = replayStats{}
	off, offGCs := replayOnce(&tracer{})
	*st = replayStats{}
	on, onGCs := replayOnce(tr)
	probe.close()
	norm := probe.normalizer()

	self, count := tr.selfTimes()
	m := b.m
	per := func(name string) float64 { // mean self time per span
		if count[name] == 0 {
			return 0
		}
		return self[name] / float64(count[name])
	}
	for _, l := range []struct{ span, metric string }{
		{"w2.parse", "w2.parse_ms"}, {"w2.sema", "w2.sema_ms"}, {"ir.build", "ir.build_ms"},
		{"opt.optimize", "opt.optimize_ms"}, {"commgraph", "commgraph.ms"}, {"cellgen", "cellgen.ms"},
		{"skew", "skew.ms"}, {"iugen", "iugen.ms"}, {"hostgen", "hostgen.ms"}, {"verify", "verify.ms"},
		{"fastexec.plan", "fastexec.plan_ms"}, {"fastexec.exec", "fastexec.exec_ms"}, {"sim.run", "sim.exec_ms"},
		{"symbolic.class_fit", "symbolic.class_fit_ms"}, {"driver.costmodel", "driver.costmodel_ms"},
	} {
		m.set(l.metric, self[l.span], "ms")
	}
	var phaseSum float64
	for _, name := range []string{"w2.parse", "w2.sema", "ir.build", "opt.optimize", "commgraph", "cellgen", "skew", "iugen", "hostgen", "verify"} {
		phaseSum += self[name]
	}
	var critical float64
	for _, d := range spanDurations(tr, "walk.compile") {
		critical += d
	}
	m.set("driver.compile_ms", critical, "ms")
	m.set("driver.phase_sum_ms", phaseSum, "ms")
	m.set("symbolic.template_ms", per("symbolic.template"), "ms")
	m.set("symbolic.instantiate_ms", median(w.instantiateMS), "ms")
	m.set("fabric.job_ms", median(spanDurations(tr, "fabric.job")), "ms")
	m.set("service.decode_ms", per("service.decode"), "ms")
	m.set("service.encode_ms", per("service.encode"), "ms")
	m.set("service.cache_get_us", per("service.cache_get")*1e3, "us")
	m.set("service.template_get_ms", per("service.template_get"), "ms")
	m.set("service.queue_wait_ms", per("service.queue_wait"), "ms")
	m.set("service.resident_mb", median(on.passes.resident), "MiB")
	w.report(m)

	st.mu.Lock()
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("service.cache_hit_frac", frac(st.cacheHits, st.cacheGets), "fraction")
	m.set("service.inst_hit_frac", frac(st.tmplHits, st.tmplGets), "fraction")
	m.set("service.reject_frac", frac(st.rejects, st.admits), "fraction")
	m.set("driver.run_overhead_ms", float64(st.runNS-st.execNS)/1e6/float64(max(st.runs, 1)), "ms")
	m.set("sim.run_share", float64(st.simNS)/float64(max(st.execNS, 1)), "fraction")
	st.mu.Unlock()
	m.set("symbolic.fallback_frac", frac(w.instFallbacks+st.tmplFallbacks, w.instCalls+st.tmplInsts+st.tmplFallbacks), "fraction")

	perReq := func(rb *bench) float64 {
		if len(rb.lat) == 0 {
			return 0
		}
		return sum(values(rb.lat, norm)) / float64(len(rb.lat))
	}
	overhead := perReq(on) - perReq(off)
	m.set("bench.trace_overhead_ms", overhead, "ms")
	m.set("bench.trace_overhead_frac", overhead/perReq(off), "fraction")
	m.set("bench.spans", float64(len(tr.spans)), "count")
	fmt.Fprintf(os.Stderr, "warpdbench: traced replay %.3f ms/request vs untraced %.3f ms/request (%d and %d requests, %d and %d collections); %d spans\n",
		perReq(on), perReq(off), len(on.lat), len(off.lat), onGCs, offGCs, len(tr.spans))
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "warpdbench:   %-28s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// spanDurations returns the durations (ms) of every span named name.
func spanDurations(tr *tracer, name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// merge adds another tally's counts into t.
func (t *tally) merge(o *tally) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for c, n := range o.causes {
		if t.causes == nil {
			t.causes = map[string]int{}
		}
		t.causes[c] += n
	}
	for _, e := range o.examples {
		if len(t.examples) < 5 {
			t.examples = append(t.examples, e)
		}
	}
}
