package verify

import (
	"fmt"

	"warp/internal/mcode"
	"warp/internal/skew"
	"warp/internal/w2"
)

// CheckCaps evaluates, in closed form, every analysis cap under which
// Verify rejects a program as unprovable, and returns the *Error Verify
// would return for it, or nil when the program is within every cap.  It
// costs time linear in the static program, never in trip counts, so a
// caller that inherits a proof made at another problem size (symbolic
// instantiation) can re-discharge the caps at its own size and reject
// exactly as a concrete verified compile would.  The program must be
// structurally valid.
func CheckCaps(p Program) error {
	if p.Cell == nil || p.IU == nil {
		return &Error{Diags: []Diagnostic{{Invariant: InvStructure, Cell: -1, Instr: -1, Loop: -1,
			Detail: "missing cell, IU or host program"}}}
	}
	if diags := capDiags(p, buildCellStreams(p.Cell)); len(diags) > 0 {
		return &Error{Diags: diags}
	}
	return nil
}

// capDiags returns the InvUnproven diagnostics of every cap the program
// exceeds, in the verifier's group order:
//
//   - a data channel past enumEventLimit events whose symbolic occupancy
//     or skew-coverage bound fails;
//   - an IU program past emuCycleLimit cycles (its streams cannot be
//     emulated, so nothing further is checked against them);
//   - memory references past enumEventLimit (Adr timing into cell 0
//     needs the exact sweep);
//   - a cell program past emuCycleLimit cycles (the loop-boundary
//     sequence the signal stream is matched against cannot be
//     enumerated).
//
// The forwarded Adr and Sig queues need no entry of their own: their
// streams are enumerable whenever the last two caps hold.
func capDiags(p Program, cs *cellStreams) []Diagnostic {
	var diags []Diagnostic
	unproven := func(format string, args ...any) {
		diags = append(diags, Diagnostic{Invariant: InvUnproven, Cell: -1, Instr: -1, Loop: -1,
			Detail: fmt.Sprintf(format, args...)})
	}
	if p.Cells > 1 {
		for _, ch := range []w2.Channel{w2.ChanX, w2.ChanY} {
			body := cs.data[ch]
			sends, recvs := treeCount(body)
			if sends != recvs || sends <= enumEventLimit {
				// Small enough for the exact sweep, or an imbalance
				// checkDataQueues reports as a violation in its own right.
				continue
			}
			if bound := symbolicOccBound(body, p.Skew, 1); bound > mcode.QueueDepth {
				unproven("channel %s: symbolic occupancy bound %d exceeds %d and the %d-event stream is too large to enumerate",
					ch, bound, mcode.QueueDepth, sends)
			}
			sp := skewProg(body, cs.cycles)
			b, _, err := skew.MinSkewBound(sp, sp, skew.BoundTight)
			switch {
			case err != nil:
				unproven("channel %s: skew bound failed: %v", ch, err)
			case b.Cmp(skew.RI(p.Skew)) > 0:
				unproven("channel %s: cannot prove skew %d covers every receive (symbolic minimum-skew bound %s) and the stream is too large to enumerate",
					ch, p.Skew, b)
			}
		}
	}
	if p.IU.Cycles() > emuCycleLimit {
		unproven("IU program exceeds %d cycles; address and signal streams cannot be verified", int64(emuCycleLimit))
		return diags
	}
	if memRefs, _ := treeCount(cs.mem); memRefs > enumEventLimit {
		unproven("%d memory references are too many to enumerate; Adr timing into cell 0 unproven", memRefs)
	}
	if cs.cycles > emuCycleLimit {
		unproven("cell program too large to enumerate loop boundaries; signal stream unproven")
	}
	return diags
}
