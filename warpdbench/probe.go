package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The host this benchmark was built on is a shared virtual machine whose
// effective CPU speed drifts by a quarter or more within seconds, for
// reasons outside the process: a fixed loop's time varies as much as
// the benchmark's requests do.  A timing in plain milliseconds carries
// that drift into every metric.  The speed probe measures it instead: a
// goroutine times a fixed, allocation-free piece of CPU work every
// probeEvery beside the workload, and each request's latency is scaled
// by probeNominal ÷ the median probe time around that request.  The
// results are host-normalized milliseconds, which stay comparable
// across runs on a drifting host.  The probe calls no code of the
// repository and costs about 1.5% of one CPU, but it shares the CPUs
// with the workload: with both CPUs busy (cached-mix's two clients) it
// reads about 10% slower than on an idle host, so a change that keeps
// more CPUs busy is partly absorbed by it.

// probeNominal is the probe's median time on the 2-CPU host the
// benchmark was tuned on: normalized timings read as milliseconds on a
// host that runs the probe in exactly this time.
const probeNominal = 700 * time.Microsecond

const (
	probeEvery  = 50 * time.Millisecond
	probeWindow = time.Second // probe samples this close to a request scale it
	probeMin    = 8           // fewer samples in the window: use the run's median
)

// sample is one measured latency and when it ended.
type sample struct {
	end time.Time
	ms  float64
}

func took(lat time.Duration) sample { return sample{end: time.Now(), ms: ms(lat)} }

func rawMS(s sample) float64 { return s.ms }

// values maps samples through norm.
func values(xs []sample, norm func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = norm(x)
	}
	return out
}

type probeSample struct {
	at time.Time
	us float64
}

// speedProbe samples the probe until closed.
type speedProbe struct {
	mu      sync.Mutex
	samples []probeSample // in time order
	stop    chan struct{}
	done    chan struct{}
}

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

var probeSink int

func (p *speedProbe) loop() {
	defer close(p.done)
	buf := make([]int, 8192)
	x := uint64(1)
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = int(x >> 33)
	}
	work := make([]int, len(buf))
	table := make([]int, 1024)
	for i := range table {
		table[i] = 3 * i
	}
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		copy(work, buf)
		sort.Ints(work)
		s := 0
		for i := 0; i < len(work); i += 7 {
			s += table[work[i]&1023]
		}
		probeSink = s
		d := time.Since(start)
		p.mu.Lock()
		p.samples = append(p.samples, probeSample{at: start, us: float64(d.Nanoseconds()) / 1e3})
		p.mu.Unlock()
	}
}

// close stops the sampler and waits for it to exit.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// normalizer returns the function that host-normalizes a latency: it
// scales the sample by probeNominal ÷ the median probe time over the
// request's span widened by probeWindow on each side.
func (p *speedProbe) normalizer() func(sample) float64 {
	p.mu.Lock()
	ps := append([]probeSample(nil), p.samples...)
	p.mu.Unlock()
	if len(ps) == 0 {
		return rawMS
	}
	all := make([]float64, len(ps))
	for i, s := range ps {
		all[i] = s.us
	}
	overall := median(all)
	fmt.Fprintf(os.Stderr, "warpdbench: speed probe median %.0f µs over %d samples (nominal %v)\n",
		overall, len(all), probeNominal)
	nominal := float64(probeNominal.Nanoseconds()) / 1e3
	return func(s sample) float64 {
		from := s.end.Add(-time.Duration(s.ms*1e6) - probeWindow)
		to := s.end.Add(probeWindow)
		lo := sort.Search(len(ps), func(i int) bool { return !ps[i].at.Before(from) })
		hi := sort.Search(len(ps), func(i int) bool { return ps[i].at.After(to) })
		ref := overall
		if hi-lo >= probeMin {
			win := make([]float64, hi-lo)
			for i := lo; i < hi; i++ {
				win[i-lo] = ps[i].us
			}
			ref = median(win)
		}
		return s.ms * nominal / ref
	}
}
