package fastexec

import (
	"fmt"

	"warp/internal/mcode"
)

// sigRec is one loop-control signal the IU emits.
type sigRec struct {
	id   int
	more bool
}

// iuFrame is one level of the IU generator's loop stack.
type iuFrame struct {
	items    []mcode.IUItem
	idx      int
	k, trips int64
}

// iuGen emulates the IU microprogram on demand, one instruction at a
// time, so the plan builder can pull the address and signal streams in
// the order the cell consumes them without materializing either.  The
// IU issues one instruction per cycle and its register writes land the
// next cycle, so applying each instruction's writes after its reads is
// exactly the simulator's pending-write semantics; a same-register
// immediate+ALU pair resolves to the ALU, which the simulator applies
// last.  Words emitted on one stream while the consumer waits on the
// other are buffered; for a program whose IU runs ahead of the cells
// by a bounded lead the buffers stay small.
type iuGen struct {
	regs   [mcode.IUNumRegs]int64
	table  []int64
	tblPos int
	stack  []iuFrame
	cur    []*mcode.IUInstr // the straight-line block being executed
	pos    int
	iter   int64 // innermost enclosing IU loop's iteration

	adr     []int64
	adrHead int
	sigs    []sigRec
	sigHead int
}

func newIUGen(p *mcode.IUProgram) *iuGen {
	return &iuGen{table: p.Table, stack: []iuFrame{{items: p.Items, trips: 1}}}
}

// step executes the next IU instruction, reporting false once the
// program has finished.
func (g *iuGen) step() (bool, error) {
	for g.pos >= len(g.cur) {
		if len(g.stack) == 0 {
			return false, nil
		}
		f := &g.stack[len(g.stack)-1]
		if f.idx >= len(f.items) {
			if f.k++; f.k < f.trips {
				f.idx = 0
				continue
			}
			g.stack = g.stack[:len(g.stack)-1]
			continue
		}
		it := f.items[f.idx]
		f.idx++
		switch it := it.(type) {
		case *mcode.IUStraight:
			g.cur, g.pos, g.iter = it.Instrs, 0, f.k
		case *mcode.IULoop:
			g.stack = append(g.stack, iuFrame{items: it.Body, trips: it.Trips})
		}
	}
	in := g.cur[g.pos]
	g.pos++
	for _, out := range in.Out {
		if out == nil {
			continue
		}
		var v int64
		if out.FromTable {
			if g.tblPos >= len(g.table) {
				return false, fmt.Errorf("fastexec: IU table read past its %d entries", len(g.table))
			}
			v = g.table[g.tblPos]
			g.tblPos++
		} else {
			v = g.regs[out.Src]
		}
		g.adr = append(g.adr, v)
	}
	if in.Sig != nil {
		more := in.Sig.Continue
		if !in.Sig.Static {
			more = g.iter*in.Sig.M+in.Sig.Copy < in.Sig.CellTrips-1
		}
		g.sigs = append(g.sigs, sigRec{id: in.Sig.LoopID, more: more})
	}
	var aluV int64
	if in.Alu != nil { // reads before any of this cycle's writes
		a := g.regs[in.Alu.A]
		b := in.Alu.ImmVal
		if !in.Alu.BIsImm {
			b = g.regs[in.Alu.B]
		}
		if in.Alu.Sub {
			aluV = a - b
		} else {
			aluV = a + b
		}
	}
	if in.Imm != nil {
		g.regs[in.Imm.Dst] = in.Imm.Value
	}
	if in.Alu != nil {
		g.regs[in.Alu.Dst] = aluV
	}
	return true, nil
}

// addr returns the next address on the Adr stream; ok is false once the
// IU has finished without emitting one.
func (g *iuGen) addr() (v int64, ok bool, err error) {
	for g.adrHead == len(g.adr) {
		g.adr, g.adrHead = g.adr[:0], 0
		if ok, err := g.step(); !ok || err != nil {
			return 0, false, err
		}
	}
	v = g.adr[g.adrHead]
	g.adrHead++
	return v, true, nil
}

// sig returns the next loop-control signal, like addr.
func (g *iuGen) sig() (s sigRec, ok bool, err error) {
	for g.sigHead == len(g.sigs) {
		g.sigs, g.sigHead = g.sigs[:0], 0
		if ok, err := g.step(); !ok || err != nil {
			return sigRec{}, false, err
		}
	}
	s = g.sigs[g.sigHead]
	g.sigHead++
	return s, true, nil
}

// drain runs the IU to completion, discarding what it emits.
func (g *iuGen) drain() error {
	for {
		ok, err := g.step()
		if !ok || err != nil {
			return err
		}
		g.adr, g.adrHead = g.adr[:0], 0
		g.sigs, g.sigHead = g.sigs[:0], 0
	}
}
