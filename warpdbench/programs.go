package main

import (
	"fmt"
	"math/rand"

	"warp/internal/workloads"
)

// program is one W2 program the benchmark sends to warpd, with its
// seeded input generator and hand-written reference.  The generator
// produces only inputs; the reference (a workloads.*Ref function)
// computes the expected output in the benchmark, never in the server.
type program struct {
	name     string
	src      string
	pipeline bool
	out      string // output parameter the reference covers
	// inputs draws one input set from rng.
	inputs func(rng *rand.Rand) map[string][]float64
	// ref computes the expected output prefix for an input set.
	ref func(in map[string][]float64) []float64
	// tmpl names the symbolic form of the program and its bounds, when
	// one exists (the layer walk checks template parity on it).
	tmpl   string
	bounds map[string]int64
	// heavy marks a program whose runs take hundreds of milliseconds or
	// more at paper size: a pass runs it warm once, not warmRuns times,
	// and repeat rounds only compile it.
	heavy bool
}

// quarters draws n quarter-integers in [-2, 2]: products and sums of
// them stay exact in float64, so references match bit for bit.
func quarters(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(17)-8) / 4
	}
	return xs
}

// grid draws n values on a 1/64 grid in [lo, hi).
func grid(rng *rand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	steps := int((hi - lo) * 64)
	for i := range xs {
		xs[i] = lo + float64(rng.Intn(steps))/64
	}
	return xs
}

func polynomialProg(ncoef, npoints int, pipe bool) program {
	return program{
		name: fmt.Sprintf("polynomial-%dx%d", ncoef, npoints), src: workloads.Polynomial(ncoef, npoints),
		pipeline: pipe, out: "results",
		inputs: func(rng *rand.Rand) map[string][]float64 {
			return map[string][]float64{"z": grid(rng, npoints, -1, 1), "c": quarters(rng, ncoef)}
		},
		ref:    func(in map[string][]float64) []float64 { return workloads.PolynomialRef(in["z"], in["c"]) },
		tmpl:   workloads.PolynomialSym(),
		bounds: map[string]int64{"ncoef": int64(ncoef), "npoints": int64(npoints)},
	}
}

func conv1dProg(k, n int, pipe bool) program {
	return program{
		name: fmt.Sprintf("conv1d-%dx%d", k, n), src: workloads.Conv1D(k, n),
		pipeline: pipe, out: "results",
		inputs: func(rng *rand.Rand) map[string][]float64 {
			return map[string][]float64{"x": quarters(rng, n), "w": quarters(rng, k)}
		},
		ref:    func(in map[string][]float64) []float64 { return workloads.Conv1DRef(in["x"], in["w"]) },
		tmpl:   workloads.Conv1DSym(),
		bounds: map[string]int64{"k": int64(k), "n": int64(n)},
	}
}

func matmulProg(n int, pipe bool) program {
	return program{
		name: fmt.Sprintf("matmul-%d", n), src: workloads.Matmul(n),
		pipeline: pipe, out: "c",
		inputs: func(rng *rand.Rand) map[string][]float64 {
			return map[string][]float64{"a": quarters(rng, n*n), "bmat": quarters(rng, n*n)}
		},
		ref:    func(in map[string][]float64) []float64 { return workloads.MatmulRef(in["a"], in["bmat"], n) },
		tmpl:   workloads.MatmulSym(),
		bounds: map[string]int64{"n": int64(n)},
	}
}

func binopProg(w, h int, pipe bool) program {
	return program{
		name: fmt.Sprintf("binop-%dx%d", w, h), src: workloads.Binop(w, h),
		pipeline: pipe, out: "res",
		inputs: func(rng *rand.Rand) map[string][]float64 {
			return map[string][]float64{"a": quarters(rng, w*h), "b": quarters(rng, w*h)}
		},
		ref:   func(in map[string][]float64) []float64 { return workloads.BinopRef(in["a"], in["b"]) },
		heavy: w*h >= 512*512,
	}
}

func colorsegProg(w, h, cells int, pipe bool) program {
	return program{
		name: fmt.Sprintf("colorseg-%dx%d", w, h), src: workloads.ColorSeg(w, h, cells),
		pipeline: pipe, out: "classes",
		inputs: func(rng *rand.Rand) map[string][]float64 {
			// 8-bit RGB pixels against one reference colour per cell.
			refs := make([]float64, 4*cells)
			for c := 0; c < cells; c++ {
				for j := 0; j < 3; j++ {
					refs[4*c+j] = float64(rng.Intn(256))
				}
				refs[4*c+3] = float64(c)
			}
			image := make([]float64, 3*w*h)
			for i := range image {
				image[i] = float64(rng.Intn(256))
			}
			return map[string][]float64{"refs": refs, "image": image}
		},
		ref:   func(in map[string][]float64) []float64 { return workloads.ColorSegRef(in["refs"], in["image"]) },
		heavy: w*h >= 512*512,
	}
}

func mandelbrotProg(n, iters int, pipe bool) program {
	return program{
		name: fmt.Sprintf("mandelbrot-%dx%d", n, iters), src: workloads.Mandelbrot(n, iters),
		pipeline: pipe, out: "res",
		inputs: func(rng *rand.Rand) map[string][]float64 {
			return map[string][]float64{"cxs": grid(rng, n, -2, 1), "cys": grid(rng, n, -1.5, 1.5)}
		},
		ref: func(in map[string][]float64) []float64 { return workloads.MandelbrotRef(in["cxs"], in["cys"], iters) },
	}
}

func fftProg(n int, pipe bool) program {
	return program{
		name: fmt.Sprintf("fft-%d", n), src: workloads.FFT(n),
		pipeline: pipe, out: "y",
		inputs: func(rng *rand.Rand) map[string][]float64 {
			return map[string][]float64{"twid": workloads.FFTTwiddles(n), "x": grid(rng, 2*n, -1, 1)}
		},
		ref: func(in map[string][]float64) []float64 { return workloads.FFTRef(in["x"]) },
	}
}

// paperPrograms is Table 7-1 at the paper's sizes plus matmul 32 and
// FFT 1024, each in the pipelined and the list-scheduled form.  The
// order is fixed, smallest retained program first: a pass's server
// accumulates every program it compiles (colorseg alone holds hundreds
// of MiB with its fast plan), so a seed-dependent order would change
// how much live heap each request shares the collector with.
func paperPrograms() []program {
	var ps []program
	for _, mk := range []func(pipe bool) program{
		func(pipe bool) program { return polynomialProg(10, 100, pipe) },
		func(pipe bool) program { return conv1dProg(9, 512, pipe) },
		func(pipe bool) program { return mandelbrotProg(32*32, 4, pipe) },
		func(pipe bool) program { return matmulProg(32, pipe) },
		func(pipe bool) program { return fftProg(1024, pipe) },
		func(pipe bool) program { return binopProg(512, 512, pipe) },
		func(pipe bool) program { return colorsegProg(512, 512, 10, pipe) },
	} {
		ps = append(ps, mk(true), mk(false))
	}
	return ps
}

// label names a program together with its schedule.
func (p program) label() string {
	if p.pipeline {
		return p.name + "/pipelined"
	}
	return p.name + "/list"
}

// check compares a run's outputs with the reference for its inputs and
// returns a description of the first mismatch, if any.
func check(got []float64, want []float64) error {
	if len(got) < len(want) {
		return fmt.Errorf("got %d values, want at least %d", len(got), len(want))
	}
	for i, w := range want {
		if !approxEqual(got[i], w) {
			return fmt.Errorf("[%d] = %v, want %v", i, got[i], w)
		}
	}
	return nil
}
