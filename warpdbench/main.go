// Command warpdbench is the repository's benchmark: it drives an
// in-process warpd (the production HTTP handler with its default
// configuration: verified compiles, the auto backend) from one process
// with a seeded closed-loop generator, checks every output against a
// hand-written reference, and prints one JSON result line.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	warpdbench --workload paper-cold|cached-mix|template-sweep \
//	    --seed N --seconds S --trace 0|1 [--short]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// is a separate run that times each layer from outside, by wrapping
// spans around calls into the layers' public functions (trace.go).
// --short runs one tiny pass of the workload, for the self-tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"warp/internal/driver"
)

// procStart anchors setup_s: the first set-up is timed from process
// start.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	seed    int64
	seconds time.Duration
	short   bool
	t       tally
	passes  passAgg
	setups  []sample // one per set-up
	lat     []sample // measured requests
	m       metrics
	// open starts an empty endpoint: an HTTP warpd, or in the traced
	// run an in-process replay of one.
	open func() endpoint
}

// calibrate runs the backend cost model's one-time host calibration,
// which the first run request would otherwise pay (once per process).
func (b *bench) calibrate() { driver.CostModelForHost() }

// setupReps is how many times a run sets up, so setup_s is a median.
func (b *bench) setupReps() int {
	if b.short {
		return 1
	}
	return 5
}

// setupStart returns the start time of set-up rep: process start for
// the first, now for the others.
func (b *bench) setupStart(rep int) time.Time {
	if rep == 0 {
		return procStart
	}
	return time.Now()
}

func (b *bench) setupDone(start time.Time) {
	b.setups = append(b.setups, took(time.Since(start)))
}

// report adds the end-to-end metrics every workload shares, with
// request timings host-normalized by norm (probe.go).  clients turns
// the summed request latency into the closed loop's busy wall time, so
// rps leaves out the generator's own time; tailP is the workload's tail
// percentile.
func (b *bench) report(clients int, tailP float64, norm func(sample) float64) {
	b.m.set("setup_s", median(values(b.setups, norm))/1e3, "s")
	b.m.set("ok_frac", 1-b.t.failFrac(), "fraction")
	b.passes.report(b.m, norm)
	lat := values(b.lat, norm)
	rps := 0.0
	if busy := sum(lat) / 1e3; busy > 0 {
		rps = float64(len(lat)) / (busy / float64(clients))
	}
	b.m.set("rps", rps, "1/s")
	b.m.set("p50_ms", median(lat), "ms")
	b.m.set("tail_ms", percentile(lat, tailP), "ms")
	fmt.Fprintf(os.Stderr, "warpdbench: %d measured requests, tail_ms is p%g\n", len(b.lat), tailP)
	if tailPercentile(len(b.lat), tailP) != tailP {
		fmt.Fprintf(os.Stderr, "warpdbench: fewer than ten samples lie beyond p%g\n", tailP)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Int("seconds", 10, "measurement time, in seconds")
	trace := flag.Int("trace", 0, "1 = the traced per-layer run, 0 = the end-to-end run")
	short := flag.Bool("short", false, "run one tiny pass (self-test mode)")
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "warpdbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *short)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "warpdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and returns its result line.
func run(wl workload, seed int64, seconds time.Duration, traced, short bool) result {
	b := &bench{seed: seed, seconds: seconds, short: short, m: metrics{},
		open: func() endpoint { return startServer() }}
	if traced {
		traceRun(b, wl)
	} else {
		probe := startProbe()
		wl.run(b)
		probe.close()
		b.report(wl.clients, wl.tail, probe.normalizer())
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	causes := make([]string, 0, len(b.t.causes))
	for c, n := range b.t.causes {
		causes = append(causes, fmt.Sprintf("%s×%d", c, n))
	}
	sort.Strings(causes)
	if b.t.failed > 0 {
		fmt.Fprintf(os.Stderr, "warpdbench: %d of %d operations failed %v; first: %q\n",
			b.t.failed, b.t.attempted, causes, b.t.examples)
	}
	attempted := b.t.attempted
	if attempted < 1 {
		attempted = 1 // the contract wants at least one; a run that attempted nothing also failed it
		b.t.failed = 1
	}
	return result{Correct: b.t.wrong == 0, Attempted: attempted, Failed: b.t.failed, Metrics: b.m}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
