// Convolution: the paper's 1d-conv workload — kernel of 9, one kernel
// element per cell (§7, Table 7-1).  The example compiles the program
// twice, with and without software pipelining, to show the throughput
// the paper quotes ("all the arithmetic units are fully utilized in the
// innermost loop, giving a throughput of one result per cycle").
package main

import (
	"fmt"
	"log"
	"math"

	"warp"
	"warp/internal/workloads"
)

func main() {
	const k, n = 9, 512
	src := workloads.Conv1D(k, n)

	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
	}
	w := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.2, 0.15, 0.1, 0.05}

	inputs := map[string][]float64{"x": x, "w": w}
	ref := workloads.Conv1DRef(x, w)

	for _, pipelined := range []bool{false, true} {
		prog, err := warp.Compile(src, warp.Options{Pipeline: pipelined})
		if err != nil {
			log.Fatal(err)
		}
		out, stats, err := prog.RunWith(warp.RunConfig{}, inputs)
		if err != nil {
			log.Fatal(err)
		}
		for i := range ref {
			if math.Abs(out["results"][i]-ref[i]) > 1e-9 {
				log.Fatalf("results[%d] = %v, want %v", i, out["results"][i], ref[i])
			}
		}
		mode := "list-scheduled"
		if pipelined {
			mode = "software-pipelined"
		}
		fmt.Printf("%-19s %6d cycles for %d results (%.2f cycles/result), skew %d\n",
			mode, stats.Cycles, len(ref), float64(stats.Cycles)/float64(len(ref)), prog.Skew())
	}
	fmt.Println("results verified against direct convolution: OK")
}
