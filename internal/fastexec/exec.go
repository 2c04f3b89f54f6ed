package fastexec

import (
	"context"
	"fmt"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/sim"
	"warp/internal/w2"
)

// ctxCheckInterval is how often (in executed operations) the executor
// polls ExecConfig.Ctx, mirroring the simulator's bounded cancellation
// stride.
const ctxCheckInterval = 1 << 12

const (
	ringSlots = 8                // a power of two > ringSpan: landing cycles in flight are distinct mod this
	ringSpan  = mcode.FPULatency // no write lands more than this far ahead
)

// ExecConfig controls one execution of a plan.
type ExecConfig struct {
	// Ctx, when non-nil, is polled at a bounded operation stride (and
	// once up front); once cancelled the run aborts with an error
	// wrapping ctx.Err().
	Ctx context.Context
	// MaxCycles mirrors the simulator's livelock guard (0 = 1<<28): a
	// plan whose modeled run the simulator would have aborted is
	// rejected with an error wrapping sim.ErrLivelock, keeping the two
	// backends' failure behaviour aligned.
	MaxCycles int64
	// Progress, when non-nil, receives modeled-cycle position updates
	// at the same stride the context is polled, plus one final update
	// when the run completes.  The position is the fraction of the
	// operations replayed scaled onto the modeled cycle count, so it is
	// monotone and comparable to the simulator's cycles-retired
	// counter.  nil keeps the replay loop progress-free.
	Progress obs.ProgressFunc
}

// Result reports one execution.
type Result struct {
	// Cycles is the modeled machine time — identical to the count the
	// cycle-accurate simulator reports for the same program.
	Cycles int64
	// CellFinish is the modeled absolute cycle each cell finished at.
	CellFinish []int64
	// AddOps/MulOps are FPU issues summed over all cells; CellActive is
	// the summed active windows (finish − start per cell), the
	// denominator of the utilization metrics.
	AddOps, MulOps int64
	CellActive     int64
	// Sent counts words delivered to the host per channel.
	Sent map[w2.Channel]int
	// Obs is a modeled run profile: exact start/finish/issue counts per
	// cell; scheduled idle cycles are attributed as bubbles (the
	// starved/bubble split needs queue timing only the simulator has).
	Obs *obs.Profile
}

// pendWrite is a register write waiting for its landing cycle.
type pendWrite struct {
	reg uint8
	val float64
}

// ringSlot holds the writes landing on one cycle.  Landing cycles in
// flight span at most FPULatency cycles, so slots keyed by cycle mod
// ringSlots never collide.
type ringSlot struct {
	land int64
	n    int
	w    []pendWrite
}

// pstore is a memory store waiting its one-cycle latency; stores always
// land before the next operation executes.
type pstore struct {
	addr int64
	val  float64
}

// execState is the whole-array execution state shared across cells.
type execState struct {
	plan     *Plan
	hostMem  []float64
	ctx      context.Context
	progress obs.ProgressFunc

	mem     []float64 // one cell's data memory, zeroed per cell
	pstores []pstore

	// Inter-cell streams, double-buffered: a cell reads prev* (its left
	// neighbour's full output) and appends to cur*.
	prevX, prevY []float64
	curX, curY   []float64
	xPos, yPos   int

	// Host streams and positions, indexed X, Y.
	hostIn     [2][]hostgen.Word
	hostOut    [2][]int
	hostInPos  [2]int
	hostOutPos [2]int

	opCount int64
}

// cellRun is the per-cell execution state: registers, the landing
// ring, the loop counters and the cell-local cycle of the block being
// replayed.
type cellRun struct {
	st          *execState
	idx         int
	first, last bool
	poll        bool // a context or progress hook is attached
	regs        [mcode.NumRegs]float64
	ring        [ringSlots]ringSlot
	applied     int64 // cycle up to which landed writes are applied
	k           []int64
	t           int64
}

// landTo applies every pending register write landing at or before
// cycle t, in (landing cycle, issue order) — the simulator's pending
// scan order.
func (c *cellRun) landTo(t int64) {
	for u := c.applied + 1; u <= t && u <= c.applied+ringSpan; u++ {
		s := &c.ring[u&(ringSlots-1)]
		if s.land == u {
			for _, w := range s.w[:s.n] {
				c.regs[w.reg] = w.val
			}
			s.n = 0
			s.land = -1
		}
	}
	c.applied = t
}

func (c *cellRun) write(reg uint8, v float64, land int64) {
	s := &c.ring[land&(ringSlots-1)]
	s.land = land
	if s.n == len(s.w) {
		s.w = append(s.w, pendWrite{})
	}
	s.w[s.n] = pendWrite{reg: reg, val: v}
	s.n++
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// alu mirrors the simulator's FPU evaluation exactly, including the
// divide-by-zero contract error, scheduling the result at the unit's
// latency.
func (c *cellRun) alu(o *aluField, t int64) error {
	a := c.regs[o.src[0]]
	b := c.regs[o.src[1]]
	var v float64
	code := mcode.AluCode(o.code)
	switch code {
	case mcode.Fadd:
		v = a + b
	case mcode.Fsub:
		v = a - b
	case mcode.Fneg:
		v = -a
	case mcode.Fmul:
		v = a * b
	case mcode.Fdiv:
		if b == 0 {
			return fmt.Errorf("fastexec: floating divide by zero")
		}
		v = a / b
	case mcode.CmpEQ:
		v = boolToF(a == b)
	case mcode.CmpNE:
		v = boolToF(a != b)
	case mcode.CmpLT:
		v = boolToF(a < b)
	case mcode.CmpLE:
		v = boolToF(a <= b)
	case mcode.CmpGT:
		v = boolToF(a > b)
	case mcode.CmpGE:
		v = boolToF(a >= b)
	case mcode.BoolAnd:
		v = boolToF(a != 0 && b != 0)
	case mcode.BoolOr:
		v = boolToF(a != 0 || b != 0)
	case mcode.BoolNot:
		v = boolToF(a == 0)
	case mcode.Sel:
		if a != 0 {
			v = b
		} else {
			v = c.regs[o.src[2]]
		}
	case mcode.Mov:
		v = a
	default:
		return fmt.Errorf("fastexec: unknown ALU code %v", code)
	}
	c.write(o.dst, v, t+code.Latency())
	return nil
}

// chans names the host stream indices.
var chans = [2]w2.Channel{w2.ChanX, w2.ChanY}

func chanIdx(chanY bool) int {
	if chanY {
		return 1
	}
	return 0
}

// hostWord resolves cell 0's next input word on a channel, lazily
// against host memory — exact because semantic analysis makes receive
// externals in-parameters and send externals out-parameters, so the
// input region is never overwritten during a run.
func (st *execState) hostWord(chanY bool) (float64, error) {
	ci := chanIdx(chanY)
	seq := st.hostIn[ci]
	pos := st.hostInPos[ci]
	if pos >= len(seq) {
		return 0, fmt.Errorf("fastexec: host input stream on %s ran dry after %d words", chans[ci], len(seq))
	}
	st.hostInPos[ci] = pos + 1
	w := seq[pos]
	if w.Literal {
		return w.Value, nil
	}
	if w.Index < 0 || w.Index >= len(st.hostMem) {
		return 0, fmt.Errorf("fastexec: host input index %d outside host memory of %d words", w.Index, len(st.hostMem))
	}
	return st.hostMem[w.Index], nil
}

// hostCollect receives one word from the last cell on a channel,
// mirroring the simulator's output sequencing (Discard entries are
// dummy sends with no destination).
func (st *execState) hostCollect(chanY bool, v float64) error {
	ci := chanIdx(chanY)
	seq := st.hostOut[ci]
	pos := st.hostOutPos[ci]
	if pos >= len(seq) {
		return fmt.Errorf("fastexec: the last cell sent more words on %s than the host program expects (%d)", chans[ci], len(seq))
	}
	if idx := seq[pos]; idx != hostgen.Discard {
		if idx < 0 || idx >= len(st.hostMem) {
			return fmt.Errorf("fastexec: host output index %d outside host memory of %d words", idx, len(st.hostMem))
		}
		st.hostMem[idx] = v
	}
	st.hostOutPos[ci] = pos + 1
	return nil
}

// Execute runs the plan over a host memory image (inputs pre-loaded;
// outputs written in place).  The plan is read-only: concurrent
// Execute calls on one Plan are safe.
func (p *Plan) Execute(hostMem []float64, cfg ExecConfig) (*Result, error) {
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 28
	}
	// The simulator aborts when its clock passes MaxCycles before the
	// last cell retires, i.e. whenever the run needs more than
	// MaxCycles+1 cycles; the modeled count makes the same decision
	// without running.
	if p.cycles > maxCycles+1 {
		return nil, fmt.Errorf("fastexec: modeled run needs %d cycles, exceeding %d; the machine is %w",
			p.cycles, maxCycles, sim.ErrLivelock)
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}

	st := &execState{
		plan:     p,
		hostMem:  hostMem,
		ctx:      cfg.Ctx,
		progress: cfg.Progress,
		mem:      make([]float64, mcode.MemWords),
		curX:     make([]float64, 0, p.sendX),
		curY:     make([]float64, 0, p.sendY),
		hostIn:   [2][]hostgen.Word{p.host.In[w2.ChanX], p.host.In[w2.ChanY]},
		hostOut:  [2][]int{p.host.Out[w2.ChanX], p.host.Out[w2.ChanY]},
	}
	c := &cellRun{st: st, k: make([]int64, p.depth), poll: cfg.Ctx != nil || cfg.Progress != nil}
	for i := 0; i < p.cells; i++ {
		if err := p.runCell(c, i); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		// This cell's output becomes the next cell's input; the spent
		// input buffer is recycled as the next output buffer.
		st.prevX, st.curX = st.curX, st.prevX[:0]
		st.prevY, st.curY = st.curY, st.prevY[:0]
		st.xPos, st.yPos = 0, 0
	}
	if cfg.Progress != nil {
		cfg.Progress(obs.ProgressUpdate{Cycles: p.cycles, Done: true})
	}
	return p.result(st), nil
}

// runCell replays the loop tree for one cell.  Writes still in flight
// when the cell retires are never observed: the simulator stops
// stepping a finished cell the same way.
func (p *Plan) runCell(c *cellRun, idx int) error {
	c.idx, c.first, c.last = idx, idx == 0, idx == p.cells-1
	c.regs = [mcode.NumRegs]float64{}
	for s := range c.ring {
		c.ring[s].land = -1
		c.ring[s].n = 0
	}
	c.applied, c.t = -1, 0
	clear(c.st.mem)
	c.st.pstores = c.st.pstores[:0]
	return p.run(c, 0, p.top)
}

// run replays nodes[lo:hi], advancing the cell-local cycle past each.
func (p *Plan) run(c *cellRun, lo, hi int32) error {
	for ni := lo; ni < hi; ni++ {
		n := &p.nodes[ni]
		if n.trips == 0 {
			if err := p.block(c, n); err != nil {
				return err
			}
			continue
		}
		k := &c.k[n.level]
		if n.hi-n.lo == 1 && p.nodes[n.lo].trips == 0 {
			// A loop over a single block: no recursion per iteration.
			body := &p.nodes[n.lo]
			for *k = 0; *k < n.trips; *k++ {
				if err := p.block(c, body); err != nil {
					return err
				}
			}
			continue
		}
		for *k = 0; *k < n.trips; *k++ {
			if err := p.run(c, n.lo, n.hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// addr evaluates a memory field's address form at the current loop
// counters.
func (p *Plan) addr(f *memField, k []int64) int64 {
	a := int64(f.base)
	for _, tm := range p.terms[f.termLo:f.termHi] {
		a += int64(tm.coef) * k[tm.level]
	}
	if f.flags&memExplicit != 0 {
		a = int64(p.explicit[a])
	}
	return a
}

// block replays one block's ops starting at the cell-local cycle c.t,
// then advances c.t past the block.
func (p *Plan) block(c *cellRun, n *node) error {
	st := c.st
	base := c.t
	c.t += n.cycles
	for oi := n.lo; oi < n.hi; oi++ {
		o := &p.ops[oi]
		if c.poll {
			if err := st.poll(); err != nil {
				return err
			}
		}
		t := base + int64(o.off)
		// Writes landing by this cycle become visible before any read.
		c.landTo(t)
		for _, w := range st.pstores {
			st.mem[w.addr] = w.val
		}
		st.pstores = st.pstores[:0]

		// Field order matches the simulator: IO, memory ports, ADD,
		// MUL, MOV, literal — which fixes the issue order of same-cycle
		// pending writes.
		for i := o.ioLo; i < o.ioHi; i++ {
			io := &p.io[i]
			if io.recv {
				var v float64
				if c.first {
					var err error
					if v, err = st.hostWord(io.chanY); err != nil {
						return err
					}
				} else if io.chanY {
					if st.yPos >= len(st.prevY) {
						return fmt.Errorf("fastexec: queue cell%d.Y underflows (receive before the matching send)", c.idx)
					}
					v = st.prevY[st.yPos]
					st.yPos++
				} else {
					if st.xPos >= len(st.prevX) {
						return fmt.Errorf("fastexec: queue cell%d.X underflows (receive before the matching send)", c.idx)
					}
					v = st.prevX[st.xPos]
					st.xPos++
				}
				c.write(io.reg, v, t+1)
			} else {
				v := c.regs[io.reg]
				switch {
				case c.last:
					if err := st.hostCollect(io.chanY, v); err != nil {
						return err
					}
				case io.chanY:
					st.curY = append(st.curY, v)
				default:
					st.curX = append(st.curX, v)
				}
			}
		}
		for pi := range o.mem {
			f := &o.mem[pi]
			if f.flags&memValid == 0 {
				continue
			}
			a := p.addr(f, c.k)
			if f.flags&memStore != 0 {
				st.pstores = append(st.pstores, pstore{addr: a, val: c.regs[f.reg]})
			} else {
				c.write(f.reg, st.mem[a], t+1)
			}
		}
		if o.flags&hasAdd != 0 {
			if err := c.alu(&o.add, t); err != nil {
				return err
			}
		}
		if o.flags&hasMul != 0 {
			if err := c.alu(&o.mul, t); err != nil {
				return err
			}
		}
		if o.flags&hasMov != 0 {
			if err := c.alu(&o.mov, t); err != nil {
				return err
			}
		}
		if o.flags&hasLit != 0 {
			c.write(o.litDst, o.lit, t+1)
		}
	}
	return nil
}

// poll counts one executed operation and, at the bounded stride, checks
// the context and reports progress.
func (st *execState) poll() error {
	st.opCount++
	if st.opCount%ctxCheckInterval != 1 {
		return nil
	}
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			return fmt.Errorf("fastexec: run aborted: %w", err)
		}
	}
	if st.progress != nil {
		// The replay visits cells sequentially, so a per-cell position
		// would jump backwards at each cell boundary; scale the global
		// operation counter onto the modeled cycle axis for a monotone
		// position.
		p := st.plan
		total := p.dynOps * int64(p.cells)
		st.progress(obs.ProgressUpdate{Cycles: p.cycles * st.opCount / total})
	}
	return nil
}

// result assembles the modeled statistics and run profile.
func (p *Plan) result(st *execState) *Result {
	res := &Result{
		CellFinish: make([]int64, p.cells),
		AddOps:     p.addOps * int64(p.cells),
		MulOps:     p.mulOps * int64(p.cells),
		Sent:       map[w2.Channel]int{},
		Cycles:     p.cycles,
	}
	// Only the last cell delivers to the host, so its output positions
	// are the per-channel delivery counts.
	for ci, ch := range chans {
		if n := st.hostOutPos[ci]; n > 0 {
			res.Sent[ch] = n
		}
	}
	prof := &obs.Profile{
		Cells:  p.cells,
		Cycles: p.cycles,
		Skew:   p.skew,
		Lead:   p.lead,
		Cell:   make([]obs.CellProfile, p.cells),
	}
	last := p.cycles - 1
	for i := 0; i < p.cells; i++ {
		start := p.lead + int64(i)*p.skew
		finish := start
		if p.cellCycles > 0 {
			finish = start + p.cellCycles - 1
		}
		res.CellFinish[i] = finish
		res.CellActive += finish - start
		prof.Cell[i] = obs.CellProfile{
			Start:  start,
			Finish: finish,
			AddOps: p.addOps, MulOps: p.mulOps, MovOps: p.movOps,
			Loads: p.loads, Stores: p.stores,
			Busy:     p.dynOps,
			Bubble:   p.cellCycles - p.dynOps, // idle issue slots; the starved split needs queue timing
			SkewLead: int64(i) * p.skew,
			Drain:    last - finish,
		}
	}
	res.Obs = prof
	return res
}
