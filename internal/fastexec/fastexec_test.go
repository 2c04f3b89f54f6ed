package fastexec_test

// Differential contract tests: for every workload the compiler
// produces, the fast executor must match the cycle-accurate simulator
// bit for bit — identical output words, identical modeled cycle count,
// identical operation totals.  These tests are the local half of the
// verifier→fastexec contract; the driver's fuzz harness extends the
// same comparison over random programs.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"warp/internal/driver"
	"warp/internal/fastexec"
	"warp/internal/hostgen"
	"warp/internal/interp"
	"warp/internal/mcode"
	"warp/internal/sim"
	"warp/internal/w2"
	"warp/internal/workloads"
)

// planFor compiles W2 source and builds the fast-execution plan from
// the same artifacts the simulator would consume.
func planFor(t *testing.T, src string, opts driver.Options) (*driver.Compiled, *fastexec.Plan) {
	t.Helper()
	c, err := driver.Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	plan, err := fastexec.Compile(fastexec.Program{
		Cells: c.Cells,
		Cell:  c.Cell,
		IU:    c.IU,
		Host:  c.Host,
		Skew:  c.Skew,
		Lead:  c.IUGen.Prologue + 1,
	})
	if err != nil {
		t.Fatalf("fastexec compile: %v", err)
	}
	return c, plan
}

// runBoth executes the program on both backends over independent host
// memory images and asserts bit-identical results.
func runBoth(t *testing.T, c *driver.Compiled, plan *fastexec.Plan, inputs map[string][]float64) {
	t.Helper()
	simMem, err := interp.BuildHostMem(c.Info, inputs)
	if err != nil {
		t.Fatalf("host mem: %v", err)
	}
	matchSim(t, fastexec.Program{
		Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
		Skew: c.Skew, Lead: c.IUGen.Prologue + 1,
	}, plan, simMem)
}

// matchSim runs a program on the simulator and its plan on the fast
// executor over copies of one host memory image and asserts identical
// cycles, statistics and output bits.
func matchSim(t *testing.T, p fastexec.Program, plan *fastexec.Plan, mem []float64) {
	t.Helper()
	simMem := append([]float64(nil), mem...)
	fastMem := append([]float64(nil), mem...)

	simStats, err := sim.Run(sim.Config{
		Cells: p.Cells, Cell: p.Cell, IU: p.IU, Host: p.Host,
		Skew: p.Skew, Lead: p.Lead, HostMem: simMem,
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	res, err := plan.Execute(fastMem, fastexec.ExecConfig{})
	if err != nil {
		t.Fatalf("fastexec: %v", err)
	}

	if res.Cycles != simStats.Cycles {
		t.Errorf("cycles: fast %d, sim %d", res.Cycles, simStats.Cycles)
	}
	if res.AddOps != simStats.AddOps || res.MulOps != simStats.MulOps {
		t.Errorf("FPU issues: fast %d/%d, sim %d/%d", res.AddOps, res.MulOps, simStats.AddOps, simStats.MulOps)
	}
	if res.CellActive != simStats.CellActive {
		t.Errorf("cell-active: fast %d, sim %d", res.CellActive, simStats.CellActive)
	}
	for i := range simStats.CellFinish {
		if res.CellFinish[i] != simStats.CellFinish[i] {
			t.Errorf("cell %d finish: fast %d, sim %d", i, res.CellFinish[i], simStats.CellFinish[i])
		}
	}
	for ch, n := range simStats.Sent {
		if res.Sent[ch] != n {
			t.Errorf("sent on %s: fast %d, sim %d", ch, res.Sent[ch], n)
		}
	}
	for i := range simMem {
		if math.Float64bits(simMem[i]) != math.Float64bits(fastMem[i]) {
			t.Fatalf("host word %d diverges: fast %v (bits %x), sim %v (bits %x)",
				i, fastMem[i], math.Float64bits(fastMem[i]), simMem[i], math.Float64bits(simMem[i]))
		}
	}
}

func seededInputs(c *driver.Compiled, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	in := map[string][]float64{}
	for _, sym := range c.Info.HostSyms {
		if sym.Out {
			continue
		}
		vals := make([]float64, sym.Type.Size())
		for i := range vals {
			// Quarter steps keep every intermediate exactly representable
			// enough to make bit-comparison meaningful rather than lucky.
			vals[i] = float64(rng.Intn(64)-32) / 4
		}
		in[sym.Name] = vals
	}
	return in
}

var workloadCases = []struct {
	name string
	src  string
}{
	{"polynomial", workloads.Polynomial(10, 40)},
	{"conv1d", workloads.Conv1D(9, 48)},
	{"matmul8", workloads.Matmul(8)},
	{"binop", workloads.Binop(16, 8)},
	{"colorseg", workloads.ColorSeg(16, 8, 4)},
	{"mandelbrot", workloads.Mandelbrot(64, 4)},
	{"fft", workloads.FFT(64)},
}

// TestMatchesSimulator is the core bit-identity sweep: every workload,
// plain and pipelined, both backends, compared word for word.
func TestMatchesSimulator(t *testing.T) {
	for _, tc := range workloadCases {
		for _, opts := range []driver.Options{{}, {Pipeline: true}, {NoOptimize: true}} {
			name := tc.name
			if opts.Pipeline {
				name += "-pipelined"
			}
			if opts.NoOptimize {
				name += "-noopt"
			}
			t.Run(name, func(t *testing.T) {
				c, plan := planFor(t, tc.src, opts)
				runBoth(t, c, plan, seededInputs(c, 1))
			})
		}
	}
}

// TestMatchesSimulatorRandomPrograms extends the bit-identity contract
// over the same random-program generator the verifier fuzz harness
// uses.
func TestMatchesSimulatorRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		src, inputs := workloads.RandomProgram(rng)
		for _, opts := range []driver.Options{{}, {Pipeline: true}} {
			c, plan := planFor(t, src, opts)
			runBoth(t, c, plan, inputs)
		}
	}
}

// TestModeledCyclesClosedForm pins the closed-form count against the
// compiled program's own cycle arithmetic.
func TestModeledCyclesClosedForm(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(8), driver.Options{})
	want := c.IUGen.Prologue + 1 + int64(c.Cells-1)*c.Skew + c.Cell.Cycles()
	if plan.Cycles() != want {
		t.Fatalf("modeled cycles %d, closed form %d", plan.Cycles(), want)
	}
	if plan.Ops() <= 0 || int64(plan.Ops()) > c.Cell.Cycles() {
		t.Fatalf("dynamic ops %d outside (0, %d]", plan.Ops(), c.Cell.Cycles())
	}
}

// TestConcurrentExecute shares one plan across goroutines; run under
// -race this proves Execute never mutates the plan.
func TestConcurrentExecute(t *testing.T) {
	c, plan := planFor(t, workloads.Polynomial(10, 40), driver.Options{})
	inputs := seededInputs(c, 3)
	baseMem, err := interp.BuildHostMem(c.Info, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plan.Execute(append([]float64(nil), baseMem...), fastexec.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem := append([]float64(nil), baseMem...)
			res, err := plan.Execute(mem, fastexec.ExecConfig{})
			if err != nil {
				t.Errorf("concurrent execute: %v", err)
				return
			}
			if res.Cycles != ref.Cycles {
				t.Errorf("concurrent cycles %d, want %d", res.Cycles, ref.Cycles)
			}
		}()
	}
	wg.Wait()
}

// TestContextCancelled proves an expired deadline aborts the executor
// at its bounded stride, before any work retires.
func TestContextCancelled(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(8), driver.Options{})
	mem, err := interp.BuildHostMem(c.Info, seededInputs(c, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Execute(mem, fastexec.ExecConfig{Ctx: ctx}); err == nil {
		t.Fatal("cancelled context did not abort the run")
	} else if ctx.Err() == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("abort error %v does not wrap %v", err, context.Canceled)
	}
}

// TestLivelockParity: a MaxCycles bound the simulator would trip must
// trip the fast backend too, with the same sentinel.
func TestLivelockParity(t *testing.T) {
	c, plan := planFor(t, workloads.Matmul(8), driver.Options{})
	mem, err := interp.BuildHostMem(c.Info, seededInputs(c, 5))
	if err != nil {
		t.Fatal(err)
	}
	guard := plan.Cycles() - 10
	if _, err := plan.Execute(mem, fastexec.ExecConfig{MaxCycles: guard}); !errors.Is(err, sim.ErrLivelock) {
		t.Fatalf("guard %d: error %v does not wrap sim.ErrLivelock", guard, err)
	}
	// One cycle of slack past the modeled count must run clean, exactly
	// like the simulator's m.now > MaxCycles check.
	if _, err := plan.Execute(mem, fastexec.ExecConfig{MaxCycles: plan.Cycles() - 1}); err != nil {
		t.Fatalf("guard at cycles-1: %v", err)
	}
}

// TestOpsMatchesUnrolledCount: Ops is computed in closed form over the
// loop tree; it must equal a brute-force count of the non-nop
// instructions of the fully unrolled cell program.
func TestOpsMatchesUnrolledCount(t *testing.T) {
	var unrolled func(items []mcode.CodeItem) int
	unrolled = func(items []mcode.CodeItem) int {
		n := 0
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.Straight:
				for _, in := range it.Instrs {
					if !in.Empty() {
						n++
					}
				}
			case *mcode.LoopItem:
				for k := int64(0); k < it.Trips; k++ {
					n += unrolled(it.Body)
				}
			}
		}
		return n
	}
	for _, tc := range workloadCases {
		for _, pipe := range []bool{false, true} {
			c, plan := planFor(t, tc.src, driver.Options{Pipeline: pipe})
			if got, want := plan.Ops(), unrolled(c.Cell.Items); got != want {
				t.Errorf("%s (pipeline=%v): Ops() = %d, unrolled count %d", tc.name, pipe, got, want)
			}
		}
	}
}

// TestPlanSizeIndependentOfProblemSize: a plan mirrors the loop
// structure, so its retained heap depends on the static program only —
// the same small bound holds at a problem size 64 times larger.
func TestPlanSizeIndependentOfProblemSize(t *testing.T) {
	const bound = 256 << 10
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"binop-128x128", workloads.Binop(128, 128)},
		{"binop-1024x1024", workloads.Binop(1024, 1024)},
		{"colorseg-64x64", workloads.ColorSeg(64, 64, 4)},
		{"colorseg-256x256", workloads.ColorSeg(256, 256, 4)},
	} {
		c, err := driver.Compile(tc.src, driver.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		plan, err := fastexec.Compile(fastexec.Program{
			Cells: c.Cells, Cell: c.Cell, IU: c.IU, Host: c.Host,
			Skew: c.Skew, Lead: c.IUGen.Prologue + 1,
		})
		if err != nil {
			t.Fatalf("%s: plan: %v", tc.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		runtime.KeepAlive(plan)
		if retained > bound {
			t.Errorf("%s: plan retains %d bytes (%d dynamic ops per cell), over the %d-byte bound",
				tc.name, retained, plan.Ops(), bound)
		}
	}
}

// TestInFlightWritesAcrossLoopBoundaries hand-builds a two-cell program
// whose FPU and move results issue in the last FPULatency cycles of
// loop bodies, so they land after a back-edge, inside the next loop, or
// after the loops exit.  At trip counts 1, 2 and 3 the fast executor
// must agree with the simulator bit for bit and cycle for cycle.
func TestInFlightWritesAcrossLoopBoundaries(t *testing.T) {
	alu := func(code mcode.AluCode, dst mcode.Reg, src ...mcode.Reg) *mcode.AluOp {
		o := &mcode.AluOp{Code: code, Dst: dst}
		copy(o.Src[:], src)
		return o
	}
	send := func(r mcode.Reg) []*mcode.IOOp {
		return []*mcode.IOOp{{Dir: w2.DirR, Chan: w2.ChanX, Reg: r}}
	}
	sigLoop := func(id int, trips int64, length int) *mcode.IULoop {
		body := make([]*mcode.IUInstr, length)
		for i := range body {
			body[i] = &mcode.IUInstr{}
		}
		body[length-1].Sig = &mcode.IUSig{LoopID: id, M: 1, CellTrips: trips}
		return &mcode.IULoop{ID: id, Trips: trips, Body: []mcode.IUItem{&mcode.IUStraight{Instrs: body}}}
	}
	for _, trips := range []int64{1, 2, 3} {
		cell := &mcode.CellProgram{Items: []mcode.CodeItem{
			&mcode.Straight{Instrs: []*mcode.Instr{
				{IO: []*mcode.IOOp{{Recv: true, Dir: w2.DirL, Chan: w2.ChanX, Reg: 1}}},
				{Lit: &mcode.LitOp{Dst: 2, Value: 0.5}},
				{Lit: &mcode.LitOp{Dst: 3, Value: 1.25}},
			}},
			// Every write of this body lands at or past its last cycle.
			&mcode.LoopItem{ID: 1, Trips: trips, Body: []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{
				{Add: alu(mcode.Fadd, 3, 3, 1)},
				{Mul: alu(mcode.Fmul, 4, 3, 2), IO: send(3)},
				{Add: alu(mcode.Fsub, 1, 1, 2), Mov: alu(mcode.Mov, 5, 4)},
				{Mul: alu(mcode.Fmul, 6, 4, 1), Add: alu(mcode.Fadd, 3, 3, 5)},
			}}}},
			// A short loop right behind it reads registers still in flight.
			&mcode.LoopItem{ID: 2, Trips: trips, Body: []mcode.CodeItem{&mcode.Straight{Instrs: []*mcode.Instr{
				{Add: alu(mcode.Fadd, 3, 3, 6), IO: send(6)},
				{Mov: alu(mcode.Mov, 7, 3), IO: send(4)},
			}}}},
			&mcode.Straight{Instrs: []*mcode.Instr{
				{IO: send(3)}, {IO: send(4)}, {IO: send(5)}, {IO: send(6)},
				{IO: send(7)}, {IO: send(1)}, {}, {IO: send(3)}, {IO: send(6)},
			}},
		}}
		nSends := int(3*trips) + 8
		out := make([]int, nSends)
		for i := range out {
			out[i] = 1 + i
		}
		p := fastexec.Program{
			Cells: 2,
			Cell:  cell,
			IU:    &mcode.IUProgram{Items: []mcode.IUItem{sigLoop(1, trips, 4), sigLoop(2, trips, 2)}},
			Host: &hostgen.Program{
				In:  map[w2.Channel][]hostgen.Word{w2.ChanX: {{Index: 0}}},
				Out: map[w2.Channel][]int{w2.ChanX: out},
			},
			Skew: 16,
			Lead: 2,
		}
		plan, err := fastexec.Compile(p)
		if err != nil {
			t.Fatalf("trips %d: plan: %v", trips, err)
		}
		mem := make([]float64, 1+nSends)
		mem[0] = 0.75
		matchSim(t, p, plan, mem)
	}
}

// TestLongProgramRunsFast: with no trace cap, a verified program whose
// cell program runs between 2^22 and 2^24 cycles runs on the fast
// backend under auto and matches the simulator exactly.
func TestLongProgramRunsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-million-cycle simulation")
	}
	c, err := driver.Compile(workloads.Polynomial(2, 500000), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Cell.Cycles(); n <= 1<<22 || n >= 1<<24 {
		t.Fatalf("cell program runs %d cycles; the test needs (2^22, 2^24)", n)
	}
	inputs := seededInputs(c, 9)
	fastOut, fastStats, err := driver.RunWith(c, inputs, driver.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fastStats.Backend != driver.BackendFast || fastStats.Decision.Reason != "auto-verified" {
		t.Fatalf("auto chose %s (%s: %s), want fast (auto-verified)",
			fastStats.Backend, fastStats.Decision.Reason, fastStats.Decision.Detail)
	}
	simOut, simStats, err := driver.RunWith(c, inputs, driver.RunOptions{Backend: driver.BackendSim})
	if err != nil {
		t.Fatal(err)
	}
	if fastStats.Cycles != simStats.Cycles {
		t.Errorf("cycles: fast %d, sim %d", fastStats.Cycles, simStats.Cycles)
	}
	for name, want := range simOut {
		got := fastOut[name]
		if len(got) != len(want) {
			t.Fatalf("output %s: fast has %d words, sim %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("output %s[%d]: fast %v, sim %v", name, i, got[i], want[i])
			}
		}
	}
}
