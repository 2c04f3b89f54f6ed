package verify

import (
	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// streams.go reduces the microcode to timed event streams — the
// verifier's own reading of the programs, independent of the code
// generators' bookkeeping.  Two forms are produced:
//
//   - a structured tree per stream (loops kept symbolic), which the
//     counting and occupancy bounds of counts.go consume without ever
//     expanding a trip count; and
//   - flat enumerations (every dynamic event with its exact cycle),
//     used when the program is small enough for the exact sweeps.
//
// Cell time is the instruction's ordinal in the dynamic execution:
// every cell executes exactly one microinstruction per cycle, so the
// nth instruction of cell k runs at machine cycle start_k + n with
// start_k = Lead + k·Skew.

// snode is one element of a structured timed stream: either a leaf
// carrying event deltas at one cycle, or a loop.
type snode struct {
	at    int64 // cycle relative to the enclosing body's start
	instr int   // static instruction index (leaf only)
	send  int   // events pushed at this cycle
	recv  int   // events popped at this cycle
	loop  *sloop
}

type sloop struct {
	at      int64
	trips   int64
	iterLen int64
	body    []snode
}

// event is one dynamic stream event at an absolute cycle.
type event struct {
	at    int64
	instr int
}

// cellStreams is everything the verifier derives from one cell program.
type cellStreams struct {
	data   map[w2.Channel][]snode // send/recv deltas per data channel
	mem    []snode                // memory references (Adr-queue pops), send=count
	cycles int64                  // total program length in cycles
	index  map[*mcode.Instr]int   // static instruction numbering, listing order
}

// buildCellStreams walks the cell program once, structurally.
func buildCellStreams(p *mcode.CellProgram) *cellStreams {
	cs := &cellStreams{
		data:  map[w2.Channel][]snode{w2.ChanX: nil, w2.ChanY: nil},
		index: map[*mcode.Instr]int{},
	}
	idx := 0
	var walk func(items []mcode.CodeItem) (length int64, data map[w2.Channel][]snode, mem []snode)
	walk = func(items []mcode.CodeItem) (int64, map[w2.Channel][]snode, []snode) {
		var at int64
		data := map[w2.Channel][]snode{}
		var mem []snode
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.Straight:
				for i, in := range it.Instrs {
					cs.index[in] = idx
					idx++
					t := at + int64(i)
					nMem := 0
					for _, m := range in.Mem {
						if m != nil {
							nMem++
						}
					}
					// One leaf per (instruction, channel), so a cycle
					// carrying both a send and a receive keeps them
					// together: the occupancy extremes then evaluate both
					// within-cycle orderings conservatively.
					var perChan [2]snode
					for _, io := range in.IO {
						slot := 0
						if io.Chan == w2.ChanY {
							slot = 1
						}
						n := &perChan[slot]
						n.at, n.instr = t, cs.index[in]
						if io.Recv {
							n.recv++
						} else {
							n.send++
						}
					}
					for slot, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
						if n := perChan[slot]; n.send > 0 || n.recv > 0 {
							data[ch] = append(data[ch], n)
						}
					}
					if nMem > 0 {
						mem = append(mem, snode{at: t, instr: cs.index[in], send: nMem})
					}
				}
				at += int64(len(it.Instrs))
			case *mcode.LoopItem:
				n, innerData, innerMem := walk(it.Body)
				for ch, body := range innerData {
					if len(body) == 0 {
						continue
					}
					data[ch] = append(data[ch], snode{
						loop: &sloop{at: at, trips: it.Trips, iterLen: n, body: body},
					})
				}
				if len(innerMem) > 0 {
					mem = append(mem, snode{
						loop: &sloop{at: at, trips: it.Trips, iterLen: n, body: innerMem},
					})
				}
				at += n * it.Trips
			}
		}
		return at, data, mem
	}
	length, data, mem := walk(p.Items)
	cs.cycles = length
	for ch, body := range data {
		cs.data[ch] = body
	}
	cs.mem = mem
	return cs
}

// skewProg converts a structured stream to the skew package's timed I/O
// program form, so the paper's pairwise symbolic machinery (closed-form
// timing functions over characteristic vectors) can bound it without
// enumeration.  Statement IDs are assigned in textual order per kind.
func skewProg(body []snode, length int64) *skew.Prog {
	ids := [2]int{}
	var conv func(body []snode) []skew.Elem
	conv = func(body []snode) []skew.Elem {
		var out []skew.Elem
		for _, n := range body {
			if n.loop != nil {
				out = append(out, &skew.Loop{
					At: n.loop.at, Trips: n.loop.trips, IterLen: n.loop.iterLen,
					Body: conv(n.loop.body),
				})
				continue
			}
			if n.send > 0 {
				out = append(out, &skew.Op{Kind: skew.Output, ID: ids[1], At: n.at})
				ids[1]++
			}
			if n.recv > 0 {
				out = append(out, &skew.Op{Kind: skew.Input, ID: ids[0], At: n.at})
				ids[0]++
			}
		}
		return out
	}
	return &skew.Prog{Body: conv(body), Len: length}
}

// treeCount returns the dynamic send/recv event totals of a stream
// without enumerating it: closed-form products over trip counts.
func treeCount(body []snode) (sends, recvs int64) {
	for _, n := range body {
		if n.loop != nil {
			s, r := treeCount(n.loop.body)
			sends += s * n.loop.trips
			recvs += r * n.loop.trips
			continue
		}
		sends += int64(n.send)
		recvs += int64(n.recv)
	}
	return sends, recvs
}

// flatten enumerates every dynamic event of the selected kind in time
// order, shifted by base.  pick selects how many events a leaf yields
// (sends or recvs).  Callers enumerate only streams within
// enumEventLimit.
func flatten(body []snode, base int64, pick func(snode) int, out *[]event) {
	for _, n := range body {
		if n.loop != nil {
			for i := int64(0); i < n.loop.trips; i++ {
				flatten(n.loop.body, base+n.loop.at+i*n.loop.iterLen, pick, out)
			}
			continue
		}
		for k := 0; k < pick(n); k++ {
			*out = append(*out, event{at: base + n.at, instr: n.instr})
		}
	}
}

func pickSend(n snode) int { return n.send }
func pickRecv(n snode) int { return n.recv }

// boundary is one loop-body end crossed by the cell sequencer: the cell
// pops one IU control signal per boundary, at the cycle of the
// iteration's last instruction, innermost first.
type boundary struct {
	at   int64
	id   int
	more bool
}

// cellBoundaries enumerates the boundary-crossing sequence by full
// expansion of the cell program, mirroring the simulator's sequencer.
// Callers enumerate only programs within emuCycleLimit cycles.
func cellBoundaries(p *mcode.CellProgram) []boundary {
	var out []boundary
	var t int64
	var walk func(items []mcode.CodeItem)
	walk = func(items []mcode.CodeItem) {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.Straight:
				t += int64(len(it.Instrs))
			case *mcode.LoopItem:
				for k := int64(0); k < it.Trips; k++ {
					walk(it.Body)
					out = append(out, boundary{at: t - 1, id: it.ID, more: k+1 < it.Trips})
				}
			}
		}
	}
	walk(p.Items)
	return out
}
