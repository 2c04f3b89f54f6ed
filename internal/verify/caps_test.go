package verify

import (
	"strings"
	"testing"

	"warp/internal/hostgen"
	"warp/internal/mcode"
	"warp/internal/w2"
)

// TestCheckCapsMatchesVerify pins CheckCaps to Verify: for a program
// past each analysis cap both return the identical unproven error, and
// the rejection costs closed-form time (the loops below run millions of
// iterations; nothing enumerates them).
func TestCheckCapsMatchesVerify(t *testing.T) {
	loop := func(id int, trips int64, in *mcode.Instr) *mcode.LoopItem {
		return &mcode.LoopItem{ID: id, Trips: trips, Body: []mcode.CodeItem{straight(in)}}
	}
	load := &mcode.Instr{Mem: [mcode.MemPorts]*mcode.MemOp{{Reg: 1}}}
	nop := &mcode.Instr{}
	past := int64(enumEventLimit) + 1
	cases := []struct {
		name string
		p    Program
		want string
	}{
		{
			// Every word is sent before the first receive, so the
			// symbolic occupancy bound is the whole stream.
			name: "data channel",
			p: program(int(past), int(past),
				loop(1, past, &mcode.Instr{IO: []*mcode.IOOp{sendOp(1)}}),
				loop(2, past, &mcode.Instr{IO: []*mcode.IOOp{recvOp(1)}})),
			want: "symbolic occupancy bound",
		},
		{
			name: "IU cycles",
			p: func() Program {
				p := program(0, 0, straight(nop))
				p.IU = &mcode.IUProgram{Items: []mcode.IUItem{&mcode.IULoop{ID: 1, Trips: emuCycleLimit + 1,
					Body: []mcode.IUItem{&mcode.IUStraight{Instrs: []*mcode.IUInstr{{}}}}}}}
				return p
			}(),
			want: "IU program exceeds",
		},
		{
			name: "memory references",
			p:    program(0, 0, loop(1, past, load)),
			want: "memory references are too many",
		},
		{
			name: "cell cycles",
			p:    program(0, 0, loop(1, emuCycleLimit+1, nop)),
			want: "too large to enumerate loop boundaries",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, verr := Verify(tc.p)
			cerr := CheckCaps(tc.p)
			if verr == nil || cerr == nil {
				t.Fatalf("Verify: %v; CheckCaps: %v — both must reject", verr, cerr)
			}
			if verr.Error() != cerr.Error() {
				t.Fatalf("errors differ:\nVerify:    %v\nCheckCaps: %v", verr, cerr)
			}
			if !strings.Contains(cerr.Error(), tc.want) || !strings.Contains(cerr.Error(), string(InvUnproven)) {
				t.Fatalf("error %q does not name the %q cap", cerr, tc.want)
			}
		})
	}

	// A program within every cap passes CheckCaps.
	ok := program(1, 1, straight(
		&mcode.Instr{IO: []*mcode.IOOp{recvOp(1)}},
		&mcode.Instr{IO: []*mcode.IOOp{sendOp(1)}},
	))
	if err := CheckCaps(ok); err != nil {
		t.Fatalf("CheckCaps rejected a small program: %v", err)
	}
	if err := CheckCaps(Program{Host: &hostgen.Program{In: map[w2.Channel][]hostgen.Word{}}}); err == nil {
		t.Fatal("CheckCaps accepted a program without microcode")
	}
}
