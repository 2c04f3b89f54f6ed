// FFT: the computation behind the paper's §2 headline — "a 10-cell
// Warp can process 1024-point complex fast Fourier transforms at a
// rate of one FFT every 600 microseconds".  This example compiles the
// 1024-point decimation-in-time FFT as a W2 program (the input
// bit-reversal is a 10-deep nest of binary loops whose host and memory
// indices are both affine in the bit variables — no run-time
// bit-twiddling), runs it on the simulated machine, and checks the
// spectrum against a direct DFT.
package main

import (
	"fmt"
	"log"
	"math"

	"warp"
	"warp/internal/workloads"
)

func main() {
	const n = 1024
	src := workloads.FFT(n)
	prog, err := warp.Compile(src, warp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	m := prog.Metrics()
	fmt.Printf("compiled %d-point FFT: %d cell instrs, %d IU instrs, %d IU registers, %d table words\n",
		n, m.CellInstrs, m.IUInstrs, m.IUAddrRegs, m.IUTable)

	// A two-tone signal: bins 5 and 100 should dominate.
	x := make([]float64, 2*n)
	for t := 0; t < n; t++ {
		v := math.Sin(2*math.Pi*5*float64(t)/n) + 0.5*math.Cos(2*math.Pi*100*float64(t)/n)
		x[2*t] = v
	}
	inputs := map[string][]float64{
		"twid": workloads.FFTTwiddles(n),
		"x":    x,
	}
	out, stats, err := prog.RunWith(warp.RunConfig{}, inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d machine cycles\n", stats.Cycles)

	// Verify against the O(n²) DFT on a subsample of bins (the full
	// comparison is what the test suite does at smaller sizes).
	mag := func(y []float64, k int) float64 {
		return math.Hypot(y[2*k], y[2*k+1])
	}
	want := workloads.FFTRef(x)
	worst := 0.0
	for _, k := range []int{0, 1, 5, 100, 511, 512, n - 100, n - 5, n - 1} {
		d := math.Abs(mag(out["y"], k) - mag(want, k))
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("|Y[5]| = %.1f, |Y[100]| = %.1f (expected magnitudes %d and %d)\n",
		mag(out["y"], 5), mag(out["y"], 100), n/2, n/4)
	fmt.Printf("max deviation from direct DFT on probed bins: %.2e\n", worst)
	if worst > 1e-6*n {
		log.Fatal("spectrum diverges from the DFT")
	}
	fmt.Println("OK")
}
