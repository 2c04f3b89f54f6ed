// Matrix multiplication: C = A×B on an n-cell array, the workload the
// paper's §2.2 uses to motivate IU-generated addresses ("when
// multiplying two matrices, each cell computes some columns of the
// result; all cells access the same local memory location").  Here cell
// k stores row k of B in its 4K-word local memory during a distribution
// phase — every load address is produced by the IU and broadcast down
// the Adr path — and partial sums accumulate along the array.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"warp"
	"warp/internal/workloads"
)

func main() {
	const n = 10
	src := workloads.Matmul(n)

	rng := rand.New(rand.NewSource(3))
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = math.Round(rng.Float64()*10-5) / 2
		b[i] = math.Round(rng.Float64()*10-5) / 2
	}

	prog, err := warp.Compile(src, warp.Options{Pipeline: true})
	if err != nil {
		log.Fatal(err)
	}
	m := prog.Metrics()
	fmt.Printf("compiled %dx%d matmul for %d cells: %d cell instrs, %d IU instrs, %d IU address registers, %d table words\n",
		n, n, m.Cells, m.CellInstrs, m.IUInstrs, m.IUAddrRegs, m.IUTable)

	out, stats, err := prog.RunWith(warp.RunConfig{}, map[string][]float64{"a": a, "bmat": b})
	if err != nil {
		log.Fatal(err)
	}
	want := workloads.MatmulRef(a, b, n)
	for i := range want {
		if math.Abs(out["c"][i]-want[i]) > 1e-9 {
			log.Fatalf("c[%d] = %v, want %v", i, out["c"][i], want[i])
		}
	}
	fmt.Printf("C = A x B verified elementwise in %d machine cycles (skew %d)\n",
		stats.Cycles, prog.Skew())
	fmt.Println("OK")
}
