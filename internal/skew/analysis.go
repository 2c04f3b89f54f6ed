package skew

import "fmt"

// This file provides the cached two-step interface the compiler driver
// uses per channel: the minimum-skew search and the queue-occupancy
// check both need the enumerated dynamic I/O times, and before this
// type existed each step re-enumerated both sides from scratch — four
// multi-megaword walks per channel on image-sized workloads.  An
// Analysis enumerates each side at most once and shares the slices.

// enumLimit is the dynamic I/O volume up to which the exact enumeration
// runs; past it the pairwise closed-form bound takes over.
const enumLimit = 1 << 20

// Enumerable reports whether a channel with the given number of
// dynamic outputs is analysed by exact enumeration (the "exact" search
// method) rather than by the pairwise bound.
func Enumerable(outputs int64) bool { return outputs <= enumLimit }

// Analysis carries one channel's skew computation: built once per
// channel, queried for the minimum skew, then — after the driver picks
// the global maximum across channels — for the queue occupancy at that
// chosen skew.
type Analysis struct {
	out, in *Prog
	exact   bool
	to, ti  []int64 // enumerated times (exact method only)
	countO  int64
	countI  int64
}

// NewAnalysis prepares the skew analysis for one channel pair.  When
// the dynamic I/O volume fits the exact method, both sides' times are
// enumerated here, once.
func NewAnalysis(out, in *Prog) (*Analysis, error) {
	a := &Analysis{out: out, in: in, countO: out.Count(Output), countI: in.Count(Input)}
	if a.countO != a.countI {
		return nil, fmt.Errorf("skew: %d outputs vs %d inputs; send/receive counts must match", a.countO, a.countI)
	}
	if Enumerable(a.countO) {
		a.exact = true
		a.to = out.Times(Output)
		a.ti = in.Times(Input)
	}
	return a, nil
}

// MinSkewStats returns the minimum skew (clamped to ≥ 0) and the
// search statistics, equivalent to the package-level MinSkewStats.
func (a *Analysis) MinSkewStats() (int64, SearchStats, error) {
	if a.exact {
		st := SearchStats{Method: "exact", Ops: a.countO + a.countI}
		s := minSkewTimes(a.to, a.ti)
		if s < 0 {
			s = 0
		}
		return s, st, nil
	}
	b, pairs, err := MinSkewBound(a.out, a.in, BoundPaper)
	if err != nil {
		return 0, SearchStats{Method: "bound"}, err
	}
	total := int64(len(Statements(a.out, Output))) * int64(len(Statements(a.in, Input)))
	st := SearchStats{Method: "bound", Pairs: int64(len(pairs)), Pruned: total - int64(len(pairs))}
	s := b.Ceil()
	if s < 0 {
		s = 0
	}
	return s, st, nil
}

// CheckQueue verifies the queue at the given skew over the cached
// enumeration, equivalent to the package-level CheckQueue.
func (a *Analysis) CheckQueue(skew, capacity int64) (int64, error) {
	to, ti := a.to, a.ti
	if !a.exact {
		// The bound method never enumerated; the occupancy sweep needs
		// the times, so enumerate them now (the pre-existing behaviour
		// of CheckQueue on oversized programs).
		to = a.out.Times(Output)
		ti = a.in.Times(Input)
	}
	occ, err := maxOccupancyTimes(to, ti, skew)
	if err != nil {
		return 0, err
	}
	if occ > capacity {
		return occ, fmt.Errorf("skew: queue needs %d words but the hardware provides %d (queue overflow)", occ, capacity)
	}
	return occ, nil
}

// minSkewTimes is MinSkewExact's core over pre-enumerated, matched
// sequences.
func minSkewTimes(to, ti []int64) int64 {
	if len(to) == 0 {
		return 0
	}
	best := to[0] - ti[0]
	for n := 1; n < len(to); n++ {
		if d := to[n] - ti[n]; d > best {
			best = d
		}
	}
	return best
}

// maxOccupancyTimes is MaxOccupancy's merge sweep over pre-enumerated
// sequences.
func maxOccupancyTimes(to, ti []int64, skew int64) (int64, error) {
	if len(to) != len(ti) {
		return 0, fmt.Errorf("skew: %d outputs vs %d inputs; send/receive counts must match", len(to), len(ti))
	}
	var cur, maxOcc int64
	i, j := 0, 0
	for i < len(to) || j < len(ti) {
		// At equal times the arriving word is latched while another
		// leaves, so count the send first (conservative peak).
		if i < len(to) && (j >= len(ti) || to[i] <= ti[j]+skew) {
			cur++
			if cur > maxOcc {
				maxOcc = cur
			}
			i++
		} else {
			cur--
			if cur < 0 {
				return 0, fmt.Errorf("skew: receive %d executes at cycle %d before its matching send at cycle %d (queue underflow; skew %d too small)",
					j, ti[j]+skew, to[j], skew)
			}
			j++
		}
	}
	return maxOcc, nil
}
