package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"warp/internal/cellgen"
	"warp/internal/commgraph"
	"warp/internal/conc"
	"warp/internal/driver"
	"warp/internal/hostgen"
	"warp/internal/ir"
	"warp/internal/iugen"
	"warp/internal/mcode"
	"warp/internal/opt"
	"warp/internal/prof"
	"warp/internal/skew"
	"warp/internal/verify"
	"warp/internal/w2"
)

// layerCompile compiles src by calling each compiler layer's public
// entry point in the order driver.Compile does — the serial front end
// (parse, sema, flowgraph, optimize, commgraph, cellgen), then skew ∥
// iugen ∥ hostgen as a task DAG on `workers` lanes, then verify — with
// a benchmark-side span around each call, all children of parent.  It
// assembles the same driver.Compiled, so driver.Fingerprint can show
// the traced compile produced exactly what production does.
func layerCompile(tr *tracer, parent int, src string, opts driver.Options, workers int) (*driver.Compiled, error) {
	c, err := layerCompileOnce(tr, parent, src, opts, workers)
	// driver.Compile backs a pipelined compile off to the plain schedule
	// when anything but the verifier fails; so does the traced one.
	var verr *verify.Error
	if err != nil && opts.Pipeline && !errors.As(err, &verr) {
		plain := opts
		plain.Pipeline = false
		if c2, err2 := layerCompileOnce(tr, parent, src, plain, workers); err2 == nil {
			c2.PipelineBackoff, c2.BackoffReason = true, err.Error()
			return c2, nil
		}
	}
	return c, err
}

func layerCompileOnce(tr *tracer, parent int, src string, opts driver.Options, workers int) (*driver.Compiled, error) {
	c := &driver.Compiled{W2Lines: countLines(src), Src: src}
	span := func(name string, f func() error) error {
		id := tr.begin(name, parent)
		err := f()
		tr.end(id)
		return err
	}
	var prog *ir.Program
	if err := span("w2.parse", func() (err error) { c.Module, err = w2.Parse(src); return }); err != nil {
		return nil, err
	}
	if err := span("w2.sema", func() (err error) { c.Info, err = w2.Analyze(c.Module); return }); err != nil {
		return nil, err
	}
	if err := span("ir.build", func() (err error) { prog, err = ir.Build(c.Info); return }); err != nil {
		return nil, err
	}
	c.IR = prog
	if !opts.NoOptimize {
		span("opt.optimize", func() error { c.OptStats = opt.Optimize(prog); return nil })
	}
	c.Cells = c.Module.Cells.Last - c.Module.Cells.First + 1
	if opts.Cells > 0 {
		c.Cells = opts.Cells
	}
	err := span("commgraph", func() error {
		c.Comm = commgraph.Analyze(prog)
		if err := commgraph.Check(prog, c.Cells); err != nil {
			return err
		}
		if c.Comm.UsesLeftward {
			return fmt.Errorf("driver: program sends data leftward")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = span("cellgen", func() error {
		cg, err := cellgen.Generate(prog, cellgen.Options{Pipeline: opts.Pipeline, Workers: workers})
		if err != nil {
			return err
		}
		c.CellGen, c.Cell, c.Sched = cg, cg.Cell, cg.Sched
		c.Debug = prof.BuildDebugMap(c.Module.Name, src, c.Cell)
		c.Timing = cellgen.Timing(c.Cell)
		return nil
	})
	if err != nil {
		return nil, err
	}

	c.QueueOcc = map[w2.Channel]int64{}
	chans := make([]w2.Channel, 0, len(c.Timing))
	for ch := range c.Timing {
		chans = append(chans, ch)
	}
	sort.Slice(chans, func(i, j int) bool { return fmt.Sprint(chans[i]) < fmt.Sprint(chans[j]) })
	tasks := []dagTask{
		{run: func() error { return span("skew", func() error { return layerSkew(c, chans, workers) }) }},
		{run: func() error {
			return span("iugen", func() error {
				iu, err := iugen.Generate(c.Cell)
				if err == nil {
					c.IUGen, c.IU = iu, iu.IU
				}
				return err
			})
		}},
		{run: func() error {
			return span("hostgen", func() (err error) { c.Host, err = hostgen.GenerateParallel(c.Cell, workers); return })
		}},
	}
	if opts.Verify {
		tasks = append(tasks, dagTask{deps: []int{0, 1, 2}, run: func() error {
			return span("verify", func() (err error) {
				c.Verified, err = verify.VerifyParallel(verify.Program{
					Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host, Skew: c.Skew, Lead: c.IUGen.Prologue + 1,
				}, workers)
				return
			})
		}})
	}
	if err := runDAG(tasks, workers); err != nil {
		return nil, err
	}
	return c, nil
}

// layerSkew is the driver's skew task: per-channel minimum skew and
// queue occupancy, channels analyzed concurrently.
func layerSkew(c *driver.Compiled, chans []w2.Channel, workers int) error {
	if c.Cells <= 1 {
		return nil
	}
	type chanSkew struct {
		an  *skew.Analysis
		rec prof.SkewSearch
		err error
	}
	res := make([]chanSkew, len(chans))
	conc.Do(workers, len(chans), func(i int) {
		a, err := skew.NewAnalysis(c.Timing[chans[i]], c.Timing[chans[i]])
		if err != nil {
			res[i].err = err
			return
		}
		s, st, err := a.MinSkewStats()
		if err != nil {
			res[i].err = err
			return
		}
		res[i].an = a
		res[i].rec = prof.SkewSearch{Channel: fmt.Sprint(chans[i]), Method: st.Method, Ops: st.Ops,
			Pairs: st.Pairs, Pruned: st.Pruned, Skew: s}
	})
	maxSkew := int64(1) // addresses propagate one cycle per hop
	for i := range res {
		if res[i].err != nil {
			return fmt.Errorf("driver: channel %s: %w", chans[i], res[i].err)
		}
		c.Sched.Skews = append(c.Sched.Skews, res[i].rec)
		if res[i].rec.Skew > maxSkew {
			maxSkew = res[i].rec.Skew
		}
	}
	c.Skew = maxSkew
	for i, ch := range chans {
		occ, err := res[i].an.CheckQueue(c.Skew, mcode.QueueDepth)
		if err != nil {
			return fmt.Errorf("driver: channel %s: %w", ch, err)
		}
		c.QueueOcc[ch] = occ
	}
	return nil
}

func countLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// dagTask is one node of the back-end compile DAG; deps point to
// earlier tasks.
type dagTask struct {
	deps []int
	run  func() error
}

// runDAG runs tasks on up to workers lanes, each lane claiming the
// lowest-indexed ready task as the driver's scheduler does; a task
// whose dependency failed is skipped.  It returns the lowest-indexed
// error.
func runDAG(tasks []dagTask, workers int) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	const (
		pending = iota
		running
		done
		failed
	)
	state := make([]int, len(tasks))
	errs := make([]error, len(tasks))
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var wg sync.WaitGroup
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				pick, waiting := -1, false
			scan:
				for i, t := range tasks {
					if state[i] != pending {
						continue
					}
					for _, d := range t.deps {
						switch state[d] {
						case failed:
							state[i] = failed
							cond.Broadcast()
							continue scan
						case done:
						default:
							waiting = true
							continue scan
						}
					}
					pick = i
					break
				}
				if pick < 0 {
					if !waiting {
						return
					}
					cond.Wait()
					continue
				}
				state[pick] = running
				mu.Unlock()
				err := tasks[pick].run()
				mu.Lock()
				state[pick], errs[pick] = done, err
				if err != nil {
					state[pick] = failed
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracer keeps the benchmark-side spans of a traced run in memory.  A
// nil or switched-off tracer records nothing.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	name       string
	parent     int // -1 for a root
	start, end time.Time
}

// begin opens a span and returns its id (-1 when not recording).
func (tr *tracer) begin(name string, parent int) int {
	if tr == nil || !tr.on {
		return -1
	}
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, spanRec{name: name, parent: parent, start: now})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	tr.spans[id].end = now
	tr.mu.Unlock()
}

// add records a finished span with explicit bounds.
func (tr *tracer) add(name string, parent int, start, end time.Time) int {
	if tr == nil || !tr.on {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, spanRec{name: name, parent: parent, start: start, end: end})
	return len(tr.spans) - 1
}

// selfTimes returns, per span name, the summed self time in ms — each
// span's duration minus the part of it its children cover — and the
// number of spans.
func (tr *tracer) selfTimes() (self map[string]float64, count map[string]int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := map[int][]int{}
	for i, s := range tr.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self, count = map[string]float64{}, map[string]int{}
	for i, s := range tr.spans {
		if s.end.IsZero() {
			continue
		}
		var ivs [][2]time.Time
		for _, k := range children[i] {
			ch := tr.spans[k]
			lo, hi := ch.start, ch.end
			if lo.Before(s.start) {
				lo = s.start
			}
			if hi.IsZero() || hi.After(s.end) {
				hi = s.end
			}
			if hi.After(lo) {
				ivs = append(ivs, [2]time.Time{lo, hi})
			}
		}
		self[s.name] += ms(s.end.Sub(s.start) - covered(ivs))
		count[s.name]++
	}
	return self, count
}

// covered returns the length of the union of intervals.
func covered(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = iv
		case iv[1].After(cur[1]):
			cur[1] = iv[1]
		}
	}
	if len(ivs) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}
