package verify

// counts.go is the symbolic side of the queue-safety proof: per-loop
// send/receive counting that bounds queue occupancy for every iteration
// count without enumerating a single dynamic event.
//
// For a channel between adjacent cells running the same program shifted
// by the skew s, the queue occupancy at upstream cell time x is
//
//	occ(x) = S(x) − R(x−s)
//	       = [S(x) − R(x)] + [R(x) − R(x−s)]
//	       ≤ max_x D(x)    + min(s·rate, total receives)
//
// where S and R are the cumulative send/receive counts of the program,
// D = S − R is the send/receive lag, and rate is the channel's maximum
// receives per cycle (1 for a data channel: one receive port per
// channel per instruction).  D's extremes are computed compositionally
// over the loop structure: a loop's per-iteration net is constant, so
// within the whole loop the prefix extremes are attained in the first
// or last iteration depending on the net's sign — exact, in closed
// form, for any trip count.

// treeExtremes returns the net send−recv delta of the stream and the
// exact extremes of the running lag over every prefix, counting a
// cycle's sends before its receives (push-before-pop within a cycle,
// matching the machine's left-to-right stepping order).
func treeExtremes(body []snode) (net, lo, hi int64) {
	var cur int64
	for _, n := range body {
		if n.loop != nil {
			bn, bl, bh := treeExtremes(n.loop.body)
			// Prefix extremes within iteration k are cur + k·bn + {bl,bh};
			// extremal at k = 0 or k = trips−1 by the sign of bn.
			last := n.loop.trips - 1
			if bn >= 0 {
				hi = max64(hi, cur+last*bn+bh)
				lo = min64(lo, cur+bl)
			} else {
				hi = max64(hi, cur+bh)
				lo = min64(lo, cur+last*bn+bl)
			}
			cur += n.loop.trips * bn
			continue
		}
		hi = max64(hi, cur+int64(n.send))
		lo = min64(lo, cur-int64(n.recv))
		cur += int64(n.send) - int64(n.recv)
	}
	return cur, lo, hi
}

// symbolicOccBound bounds the peak occupancy of the inter-cell queue
// fed by sends of the stream and drained, skew cycles later, by its
// receives, where rate is the stream's maximum receives per cycle.
func symbolicOccBound(body []snode, skewCycles int64, rate int64) int64 {
	_, _, hi := treeExtremes(body)
	_, recvs := treeCount(body)
	window := skewCycles * rate
	if recvs < window {
		window = recvs
	}
	return hi + window
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
