package verify

import (
	"fmt"

	"warp/internal/mcode"
)

// iu.go statically executes the IU microprogram.  The IU's arithmetic
// is fully input-independent — immediates, an adder, and a pre-stored
// table — so the complete address and loop-signal streams it will emit,
// with their exact cycles, are computable by emulation.  The emulation
// mirrors the simulator's register semantics: writes issued at cycle t
// land at t+1, applied before the cycle's reads.

// adrEvent is one address the IU pushes onto the Adr path.
type adrEvent struct {
	at    int64
	val   int64
	instr int
}

// sigEvent is one loop-control signal the IU pushes.
type sigEvent struct {
	at    int64
	id    int
	more  bool
	instr int
}

// iuTrace is the full emulated output of the IU program.
type iuTrace struct {
	adr       []adrEvent
	sigs      []sigEvent
	tableRead int
	cycles    int64
}

// indexIU assigns static instruction indices in listing order.
func indexIU(p *mcode.IUProgram) map[*mcode.IUInstr]int {
	idx := map[*mcode.IUInstr]int{}
	n := 0
	var walk func(items []mcode.IUItem)
	walk = func(items []mcode.IUItem) {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.IUStraight:
				for _, in := range it.Instrs {
					idx[in] = n
					n++
				}
			case *mcode.IULoop:
				walk(it.Body)
			}
		}
	}
	walk(p.Items)
	return idx
}

type iuWrite struct {
	reg  mcode.IUReg
	val  int64
	land int64
}

type iuEmu struct {
	regs    [mcode.IUNumRegs]int64
	pending []iuWrite
	t       int64
	tblPos  int
	table   []int64
	index   map[*mcode.IUInstr]int
	trace   *iuTrace
	col     *collector
}

// emulateIU runs the IU program to completion, collecting the emitted
// streams; callers emulate only programs within emuCycleLimit cycles.
// Table overreads are reported as diagnostics and read as zero so
// emulation can continue and surface further violations.
func emulateIU(p *mcode.IUProgram, col *collector) *iuTrace {
	e := &iuEmu{
		table: p.Table,
		index: indexIU(p),
		trace: &iuTrace{},
		col:   col,
	}
	e.run(p.Items, 0)
	e.trace.cycles = e.t
	e.trace.tableRead = e.tblPos
	return e.trace
}

func (e *iuEmu) run(items []mcode.IUItem, iter int64) {
	for _, it := range items {
		switch it := it.(type) {
		case *mcode.IUStraight:
			for _, in := range it.Instrs {
				e.step(in, iter)
			}
		case *mcode.IULoop:
			for k := int64(0); k < it.Trips; k++ {
				e.run(it.Body, k)
			}
		}
	}
}

// step executes one IU cycle, mirroring sim.stepIU: pending register
// writes landing this cycle apply first, outputs read the updated
// registers, and the adder/immediate results land next cycle.
func (e *iuEmu) step(in *mcode.IUInstr, iter int64) {
	kept := e.pending[:0]
	for _, w := range e.pending {
		if w.land <= e.t {
			e.regs[w.reg] = w.val
		} else {
			kept = append(kept, w)
		}
	}
	e.pending = kept

	for _, out := range in.Out {
		if out == nil {
			continue
		}
		var v int64
		if out.FromTable {
			if e.tblPos >= len(e.table) {
				if e.tblPos == len(e.table) { // report the first overread once
					e.col.add(Diagnostic{
						Invariant: InvAddrStream, Cell: -1, Instr: e.index[in], Loop: -1,
						Detail: fmt.Sprintf("IU reads past the end of its %d-entry address table at cycle %d", len(e.table), e.t),
					})
				}
				e.tblPos++
			} else {
				v = e.table[e.tblPos]
				e.tblPos++
			}
		} else {
			v = e.regs[out.Src]
		}
		e.trace.adr = append(e.trace.adr, adrEvent{at: e.t, val: v, instr: e.index[in]})
	}
	if in.Sig != nil {
		more := in.Sig.Continue
		if !in.Sig.Static {
			more = iter*in.Sig.M+in.Sig.Copy < in.Sig.CellTrips-1
		}
		e.trace.sigs = append(e.trace.sigs, sigEvent{at: e.t, id: in.Sig.LoopID, more: more, instr: e.index[in]})
	}
	if in.Imm != nil {
		e.pending = append(e.pending, iuWrite{reg: in.Imm.Dst, val: in.Imm.Value, land: e.t + 1})
	}
	if in.Alu != nil {
		a := e.regs[in.Alu.A]
		b := in.Alu.ImmVal
		if !in.Alu.BIsImm {
			b = e.regs[in.Alu.B]
		}
		v := a + b
		if in.Alu.Sub {
			v = a - b
		}
		e.pending = append(e.pending, iuWrite{reg: in.Alu.Dst, val: v, land: e.t + 1})
	}
	e.t++
}
