package main

import (
	"math"
	"sort"
	"sync"
)

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, or 0 for no samples.  xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile returns the highest of the candidate percentiles
// (checked from the highest down) that has at least ten samples beyond
// it among n samples, or 0 if even the lowest candidate has fewer.
func tailPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if float64(n)*(100-p)/100 >= 10 && p > best {
			best = p
		}
	}
	return best
}

// geomean returns the geometric mean of xs, or 0 if xs is empty or
// holds a non-positive value (a geometric mean of timings is only
// defined over positive samples).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// approxEqual is the driver's output tolerance: exact match, or a
// relative difference of at most 1e-9 (absolute below magnitude 1).
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// tally is the benchmark's failure accounting: every attempted
// operation is counted once, and every failure — a non-2xx response, an
// output that differs from its reference, or a template instantiation
// that disagrees with a concrete compile — is counted against it and
// never dropped.  The first few failure messages are kept for the
// report.  A tally is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int // failures that are incorrect outputs or artifacts
	causes    map[string]int
	examples  []string
}

// attempt records one attempted operation.
func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one failure of an attempted operation.  cause groups
// failures in the report (an HTTP status, "output", "artifact");
// incorrect marks a wrong result as opposed to a refused or failed
// request.
func (t *tally) fail(cause string, incorrect bool, msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if incorrect {
		t.wrong++
	}
	if t.causes == nil {
		t.causes = map[string]int{}
	}
	t.causes[cause]++
	if len(t.examples) < 5 {
		t.examples = append(t.examples, cause+": "+msg)
	}
}

// failFrac returns failed ÷ attempted (0 before any attempt).
func (t *tally) failFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
