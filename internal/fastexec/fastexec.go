// Package fastexec executes compiled Warp programs at dataflow speed,
// without cycle-accurate lock-step simulation.
//
// The cycle-accurate simulator (internal/sim) advances the whole
// machine one clock tick at a time: every cell is stepped every cycle,
// scheduled nops included, pending-write lists are scanned, queues are
// tracked.  For a *verified* program all of that re-derives guarantees
// the static verifier has already proven — queues never under- or
// overflow, every address and loop signal arrives on time, the machine
// never stalls.  This package exploits those proofs.
//
// A plan mirrors the structure of the cell microprogram rather than
// unrolling it, so its size depends only on the static program, never
// on trip counts:
//
//   - each run of straight-line code becomes a block: a flat array of
//     its non-nop microinstructions, each stamped with its cycle offset
//     inside the block.  ALU, literal and memory fields are stored by
//     value, queue-port steps live in one shared flat slice addressed
//     by [lo,hi), and nothing in an op is a pointer;
//   - each counted loop becomes a node with a trip count over a
//     contiguous range of child nodes;
//   - every memory reference resolves its address without the IU: as
//     an affine form base + Σ stride·k over the counters k of its
//     enclosing loops, or — only for a reference whose address stream
//     fits no affine form, such as a table-driven bit reversal — as an
//     index into an explicit per-reference address list.
//
// Compile emulates the IU microprogram exactly once, in lock step with
// a walk of the cell's loop structure, keeping no per-cycle storage: it
// fits each reference's affine form on the fly and checks every address
// against that form and the cell memory's range, and it checks every
// loop-control signal against the sequencer's boundary crossings.  The
// host stream lengths are checked against closed-form counts.  A
// program that violates any of these contracts is reported as an error
// so the caller can fall back to the simulator.  There is no size cap:
// building a plan takes time linear in the IU program's cycles and
// memory linear in the static program.
//
// Execute walks the node tree per cell, advancing the cell-local cycle
// t incrementally.  The replay is bit-exact with the simulator:
//
//   - Writes land late exactly as in hardware: receives, loads, moves
//     and literals become visible one cycle after issue, FPU results
//     after mcode.FPULatency cycles.  A small ring keyed by landing
//     cycle applies them in (landing cycle, issue order) — the same
//     order the simulator's pending-write scan produces, including
//     same-cycle write-after-write resolution and writes still in
//     flight across a loop back-edge or loop exit.
//   - Cells execute sequentially left to right.  Data flows rightward
//     only (the compiler enforces this), so cell i's entire input
//     streams are known once cell i-1 has run; FIFO pop order is
//     preserved by construction.
//   - The host streams follow hostgen exactly: cell 0's receives
//     resolve input words lazily against host memory (semantic analysis
//     guarantees input and output regions never alias), the last cell's
//     sends store through the output sequence, honoring Discard.
//
// Cycle counts are not measured but *modeled*, in closed form: cell i
// starts at Lead + i·Skew and retires one microinstruction per cycle
// (the machine is statically scheduled and a verified program never
// stalls), so the run takes Lead + (Cells-1)·Skew + CellCycles cycles —
// exactly the count the simulator reports.
package fastexec

import (
	"fmt"
	"math"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// Program is the static machine configuration a plan is compiled from —
// the same artifacts the simulator consumes.
type Program struct {
	Cells int
	Cell  *mcode.CellProgram
	IU    *mcode.IUProgram
	Host  *hostgen.Program
	// Skew is the cycle delay between adjacent cells' start times.
	Skew int64
	// Lead is the number of cycles cell 0 starts after the IU.
	Lead int64
}

// Op field presence bits.
const (
	hasAdd uint8 = 1 << iota
	hasMul
	hasMov
	hasLit
)

// Memory field bits.
const (
	memValid uint8 = 1 << iota
	memStore
	memExplicit
)

// aluField is one FPU field, stored by value.
type aluField struct {
	code uint8
	dst  uint8
	src  [3]uint8
}

// memField is one memory-port field.  Its address is base plus the
// terms [termLo, termHi) over the enclosing loop counters; an explicit
// field indexes the plan's address list with that value instead.
type memField struct {
	flags          uint8
	reg            uint8
	base           int32
	termLo, termHi int32
}

// term is one coefficient of an address form: coef times the counter
// of the loop at nesting level level.
type term struct {
	level int32
	coef  int32
}

// ioStep is one queue-port operation.
type ioStep struct {
	recv  bool
	chanY bool
	reg   uint8
}

// op is one non-nop microinstruction of a block, stamped with its cycle
// offset inside the block.
type op struct {
	off        int32
	flags      uint8
	litDst     uint8
	add        aluField
	mul        aluField
	mov        aluField
	ioLo, ioHi int32
	mem        [mcode.MemPorts]memField
	lit        float64
}

// node is one element of the plan's loop tree.  A block (trips == 0)
// runs ops[lo:hi] over cycles cycles; a loop runs its body nodes[lo:hi]
// trips times with its counter at nesting level level.
type node struct {
	lo, hi int32
	level  int32
	trips  int64
	cycles int64
}

// Plan is a compiled execution plan.  It is immutable after Compile and
// safe for concurrent Execute calls.
type Plan struct {
	cells      int
	skew, lead int64
	cellCycles int64
	cycles     int64 // modeled machine time, closed form
	host       *hostgen.Program

	nodes    []node
	top      int32 // nodes[:top] is the program's outermost level
	depth    int   // deepest loop nesting
	ops      []op
	io       []ioStep
	terms    []term
	explicit []int32 // per-reference address lists of non-affine references

	counts
}

// counts are a cell's dynamic operation totals, in closed form over the
// loop tree.
type counts struct {
	dynOps                 int64 // non-nop microinstructions
	addOps, mulOps, movOps int64
	loads, stores          int64
	recvX, recvY           int64
	sendX, sendY           int64
}

// Cycles returns the modeled machine time of a run: the cycle count the
// cycle-accurate simulator would report.
func (p *Plan) Cycles() int64 { return p.cycles }

// Ops returns the dynamic non-nop microinstructions per cell.
func (p *Plan) Ops() int { return int(p.dynOps) }

// Compile builds an execution plan: it converts the cell microprogram
// into the loop tree, then emulates the IU microprogram once in lock
// step with the tree to fit every memory reference's address form and
// check every address and loop signal.  Programs that break a contract
// (malformed microcode, address or signal stream inconsistencies, host
// streams too short) fail with an error; callers fall back to the
// simulator.
func Compile(p Program) (*Plan, error) {
	if p.Cells < 1 {
		return nil, fmt.Errorf("fastexec: need at least one cell")
	}
	if p.Cell == nil || p.IU == nil || p.Host == nil {
		return nil, fmt.Errorf("fastexec: incomplete program (cell, IU and host programs are all required)")
	}
	if err := mcode.ValidateCell(p.Cell); err != nil {
		return nil, fmt.Errorf("fastexec: cell program: %w", err)
	}
	if err := mcode.ValidateIU(p.IU); err != nil {
		return nil, fmt.Errorf("fastexec: IU program: %w", err)
	}
	b := &planBuilder{}
	_, hi, err := b.items(p.Cell.Items, 0, 1)
	if err != nil {
		return nil, err
	}
	b.k = make([]int64, b.depth)
	if err := b.lockstep(p.IU, hi); err != nil {
		return nil, err
	}
	if err := b.resolve(); err != nil {
		return nil, err
	}
	if len(b.explicit) > 0 {
		// A second lockstep pass fills the explicit address lists; the
		// first has already proven every address in range.
		if err := b.lockstep(p.IU, hi); err != nil {
			return nil, err
		}
	}

	plan := &Plan{
		cells:      p.Cells,
		skew:       p.Skew,
		lead:       p.Lead,
		cellCycles: p.Cell.Cycles(),
		host:       p.Host,
		nodes:      b.nodes,
		top:        hi,
		depth:      b.depth,
		ops:        b.ops,
		io:         b.io,
		terms:      b.terms,
		explicit:   b.explicit,
		counts:     b.counts,
	}
	// The last cell finishes at Lead + (Cells-1)·Skew + CellCycles - 1;
	// the simulator's reported count is one past that.  An empty cell
	// program still costs its start cycle.
	plan.cycles = p.Lead + int64(p.Cells-1)*p.Skew + plan.cellCycles
	if plan.cellCycles == 0 {
		plan.cycles++
	}

	// Host-stream consistency: cell 0 must not drain the input streams
	// dry, and the last cell's sends must fit the output sequences.
	// (Verified programs satisfy both; the checks keep an unverified
	// explicit fast run honest.)
	for _, c := range []struct {
		ch   w2.Channel
		want int64
	}{{w2.ChanX, b.recvX}, {w2.ChanY, b.recvY}} {
		if have := int64(len(p.Host.In[c.ch])); have < c.want {
			return nil, fmt.Errorf("fastexec: cell 0 receives %d words on %s but the host program supplies %d", c.want, c.ch, have)
		}
	}
	for _, c := range []struct {
		ch   w2.Channel
		want int64
	}{{w2.ChanX, b.sendX}, {w2.ChanY, b.sendY}} {
		if have := int64(len(p.Host.Out[c.ch])); c.want > have {
			return nil, fmt.Errorf("fastexec: the last cell sends %d words on %s but the host program expects %d", c.want, c.ch, have)
		}
	}
	return plan, nil
}

// slot is the build-time state of one static memory reference: where
// its field lives, and the affine form fitted to its address stream so
// far.  fit holds depth entries each of stride, stride-known and trip
// count, one per enclosing loop level.
type slot struct {
	op        int32
	port      int32
	depth     int32
	fit       int32 // offset into planBuilder.stride/known/trips
	mult      int64 // dynamic executions per cell
	addr      *mcode.MemOp
	base      int64
	seen      bool
	irregular bool // the stream fits no affine form: explicit list
	next      int64
}

// planBuilder converts the cell program into a plan and runs the lockstep
// IU check.
type planBuilder struct {
	nodes    []node
	ops      []op
	io       []ioStep
	terms    []term
	explicit []int32
	depth    int

	slots  []slot
	stride []int64
	known  []bool
	trips  []int64
	loops  []int64    // trip counts of the loops enclosing the walk
	meta   []nodeMeta // parallel to nodes
	k      []int64    // loop counters during the lockstep walk
	t      int64      // cell-local cycle during the lockstep walk
	iu     *iuGen
	fill   bool // second pass: record explicit address lists

	counts
}

// nodeMeta is the build-time side of one node: a loop's ID, a block's
// memory references slots[slotLo:slotHi].
type nodeMeta struct {
	id             int
	slotLo, slotHi int32
}

// items converts one level of the cell program into a contiguous range
// of nodes.  Consecutive straight-line blocks merge into one block node.
func (b *planBuilder) items(items []mcode.CodeItem, depth int, mult int64) (int32, int32, error) {
	if depth > b.depth {
		b.depth = depth
	}
	n := 0
	for i, it := range items {
		if !isStraight(it) || i == 0 || !isStraight(items[i-1]) {
			n++
		}
	}
	lo := int32(len(b.nodes))
	b.nodes = append(b.nodes, make([]node, n)...)
	b.meta = append(b.meta, make([]nodeMeta, n)...)
	ni := lo
	for i := 0; i < len(items); ni++ {
		if l, ok := items[i].(*mcode.LoopItem); ok {
			b.loops = append(b.loops, l.Trips)
			blo, bhi, err := b.items(l.Body, depth+1, mult*l.Trips)
			b.loops = b.loops[:len(b.loops)-1]
			if err != nil {
				return 0, 0, err
			}
			b.nodes[ni] = node{lo: blo, hi: bhi, level: int32(depth), trips: l.Trips}
			b.meta[ni].id = l.ID
			i++
			continue
		}
		nd := node{lo: int32(len(b.ops))}
		slotLo := int32(len(b.slots))
		for ; i < len(items) && isStraight(items[i]); i++ {
			for _, in := range items[i].(*mcode.Straight).Instrs {
				if !in.Empty() {
					if err := b.op(in, nd.cycles, mult); err != nil {
						return 0, 0, err
					}
				}
				nd.cycles++
			}
		}
		nd.hi = int32(len(b.ops))
		if nd.cycles > math.MaxInt32 {
			return 0, 0, fmt.Errorf("fastexec: straight-line block of %d cycles", nd.cycles)
		}
		b.nodes[ni] = nd
		b.meta[ni].slotLo, b.meta[ni].slotHi = slotLo, int32(len(b.slots))
	}
	return lo, lo + int32(n), nil
}

func isStraight(it mcode.CodeItem) bool {
	_, ok := it.(*mcode.Straight)
	return ok
}

func aluOf(o *mcode.AluOp) aluField {
	return aluField{code: uint8(o.Code), dst: uint8(o.Dst), src: [3]uint8{uint8(o.Src[0]), uint8(o.Src[1]), uint8(o.Src[2])}}
}

// op appends one non-nop microinstruction issued at offset off of the
// current block, executed mult times per cell.
func (b *planBuilder) op(in *mcode.Instr, off int64, mult int64) error {
	o := op{off: int32(off), ioLo: int32(len(b.io))}
	for _, io := range in.IO {
		if io.Recv {
			if io.Dir != w2.DirL {
				return fmt.Errorf("fastexec: receive from the right is not supported (rightward flow only)")
			}
			if io.Chan == w2.ChanY {
				b.recvY += mult
			} else {
				b.recvX += mult
			}
		} else {
			if io.Dir != w2.DirR {
				return fmt.Errorf("fastexec: send to the left is not supported (rightward flow only)")
			}
			if io.Chan == w2.ChanY {
				b.sendY += mult
			} else {
				b.sendX += mult
			}
		}
		b.io = append(b.io, ioStep{recv: io.Recv, chanY: io.Chan == w2.ChanY, reg: uint8(io.Reg)})
	}
	o.ioHi = int32(len(b.io))
	for port, mo := range in.Mem {
		if mo == nil {
			continue
		}
		o.mem[port] = memField{flags: memValid, reg: uint8(mo.Reg)}
		if mo.Store {
			o.mem[port].flags |= memStore
			b.stores += mult
		} else {
			b.loads += mult
		}
		d := len(b.loops)
		b.slots = append(b.slots, slot{
			op: int32(len(b.ops)), port: int32(port), depth: int32(d),
			fit: int32(len(b.stride)), mult: mult, addr: mo,
		})
		b.stride = append(b.stride, make([]int64, d)...)
		b.known = append(b.known, make([]bool, d)...)
		b.trips = append(b.trips, b.loops...)
	}
	if in.Add != nil {
		o.flags |= hasAdd
		o.add = aluOf(in.Add)
		b.addOps += mult
	}
	if in.Mul != nil {
		o.flags |= hasMul
		o.mul = aluOf(in.Mul)
		b.mulOps += mult
	}
	if in.Mov != nil {
		o.flags |= hasMov
		o.mov = aluOf(in.Mov)
		b.movOps += mult
	}
	if in.Lit != nil {
		o.flags |= hasLit
		o.litDst = uint8(in.Lit.Dst)
		o.lit = in.Lit.Value
	}
	b.dynOps += mult
	b.ops = append(b.ops, o)
	return nil
}

// lockstep walks the cell's loop tree once, pulling the IU's address
// and signal streams in the exact order the hardware pops them.
func (b *planBuilder) lockstep(iu *mcode.IUProgram, top int32) error {
	b.iu = newIUGen(iu)
	b.t = 0
	if err := b.walk(0, top); err != nil {
		return err
	}
	// Run the IU to completion so an error in its tail (a table
	// overread) still rejects the program.
	return b.iu.drain()
}

func (b *planBuilder) walk(lo, hi int32) error {
	for ni := lo; ni < hi; ni++ {
		n := &b.nodes[ni]
		if n.trips == 0 {
			m := &b.meta[ni]
			slots := b.slots[m.slotLo:m.slotHi]
			for i := range slots {
				if err := b.consume(&slots[i]); err != nil {
					return err
				}
			}
			b.t += n.cycles
			continue
		}
		for k := int64(0); k < n.trips; k++ {
			b.k[n.level] = k
			if err := b.walk(n.lo, n.hi); err != nil {
				return err
			}
			// One IU control signal is consumed per loop boundary,
			// innermost first — the recursion returns from inner loops
			// before reaching this point, matching the sequencer.
			if err := b.loopEnd(b.meta[ni].id, k+1 < n.trips); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *planBuilder) loopEnd(id int, more bool) error {
	s, ok, err := b.iu.sig()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("fastexec: the IU signal stream ran dry at loop L%d", id)
	}
	if s.id != id || s.more != more {
		return fmt.Errorf("fastexec: loop signal mismatch: sequencer at L%d(more=%v), IU sent L%d(more=%v)",
			id, more, s.id, s.more)
	}
	return nil
}

// consume pops the address of one dynamic execution of a memory
// reference, checks it against the cell memory and the reference's
// affine form, and fits the form's strides as they first become
// observable.
func (b *planBuilder) consume(s *slot) error {
	addr, ok, err := b.iu.addr()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("fastexec: the IU address stream ran dry at cycle %d, memory port %d",
			b.t+int64(b.ops[s.op].off), s.port)
	}
	if addr < 0 || addr >= mcode.MemWords {
		return fmt.Errorf("fastexec: address %d outside the %d-word cell memory (IU generated a bad address for %s)",
			addr, mcode.MemWords, s.addr.Addr)
	}
	if b.fill {
		if s.irregular {
			b.explicit[int64(b.ops[s.op].mem[s.port].base)+s.next] = int32(addr)
			s.next++
		}
		return nil
	}
	if !s.seen {
		// The first execution runs with every enclosing counter at zero.
		s.seen, s.base = true, addr
		return nil
	}
	if s.irregular {
		return nil
	}
	// Counters advance in lexicographic order, so the first execution
	// with counter j nonzero has k[j] = 1 and every other counter zero:
	// its offset from the base is exactly level j's stride.
	stride := b.stride[s.fit : s.fit+s.depth]
	known := b.known[s.fit : s.fit+s.depth]
	pred := s.base
	for j, kj := range b.k[:s.depth] {
		if kj == 0 {
			continue
		}
		if !known[j] {
			stride[j], known[j] = addr-s.base, true
		}
		pred += stride[j] * kj
	}
	if pred != addr {
		s.irregular = true
	}
	return nil
}

// resolve turns each reference's fitted stream into its plan form: an
// affine form, or — for an irregular stream — a reserved explicit list
// indexed by the execution's ordinal Σ k_j·(product of the inner trip
// counts), filled by a second lockstep pass.
func (b *planBuilder) resolve() error {
	var lists int64
	for i := range b.slots {
		s := &b.slots[i]
		f := &b.ops[s.op].mem[s.port]
		f.termLo = int32(len(b.terms))
		if !s.irregular {
			f.base = int32(s.base)
			for j, st := range b.stride[s.fit : s.fit+s.depth] {
				if st != 0 {
					b.terms = append(b.terms, term{level: int32(j), coef: int32(st)})
				}
			}
		} else {
			f.flags |= memExplicit
			f.base = int32(lists)
			inner := int64(1)
			trips := b.trips[s.fit : s.fit+s.depth]
			for j := len(trips) - 1; j >= 0; j-- {
				if trips[j] > 1 {
					b.terms = append(b.terms, term{level: int32(j), coef: int32(inner)})
				}
				inner *= trips[j]
			}
			lists += s.mult
			if lists > math.MaxInt32 {
				return fmt.Errorf("fastexec: irregular address streams total %d words", lists)
			}
		}
		f.termHi = int32(len(b.terms))
	}
	if lists > 0 {
		b.explicit = make([]int32, lists)
		b.fill = true
	}
	return nil
}
