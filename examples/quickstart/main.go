// Quickstart: compile the paper's Figure 4-1 polynomial-evaluation
// program, run it on the simulated 10-cell Warp array, and check the
// results against Horner's rule computed directly.
package main

import (
	"fmt"
	"log"
	"math"

	"warp"
)

const src = `
/* Polynomial evaluation (Figure 4-1): a polynomial with 10
   coefficients is evaluated for 100 data points on 10 cells. */
module polynomial (z in, c in, results out)
float z[100], c[10];
float results[100];
cellprogram (cid : 0 : 9)
begin
    function poly
    begin
        float coeff, temp, xin, yin, ans;
        int i;

        /* Every cell saves the first coefficient that reaches it,
           consumes the data and passes the remaining coefficients. */
        receive (L, X, coeff, c[0]);
        for i := 1 to 9 do begin
            receive (L, X, temp, c[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);

        /* Horner's rule: multiply the accumulated result with the
           incoming data point and add this cell's coefficient. */
        for i := 0 to 99 do begin
            receive (L, X, xin, z[i]);
            receive (L, Y, yin, 0.0);
            send (R, X, xin);
            ans := coeff + yin*xin;
            send (R, Y, ans, results[i]);
        end;
    end
    call poly;
end
`

func main() {
	prog, err := warp.Compile(src, warp.Options{Pipeline: true})
	if err != nil {
		log.Fatal(err)
	}
	m := prog.Metrics()
	fmt.Printf("compiled %s for %d cells: %d cell instructions, %d IU instructions, skew %d cycles\n",
		m.Name, m.Cells, m.CellInstrs, m.IUInstrs, m.Skew)

	// Evaluate P(z) = z^9 + 2z^8 + ... + 10 over z = 0.00, 0.02, ...
	z := make([]float64, 100)
	c := make([]float64, 10)
	for i := range z {
		z[i] = float64(i) * 0.02
	}
	for i := range c {
		c[i] = float64(i + 1)
	}
	out, stats, err := prog.RunWith(warp.RunConfig{}, map[string][]float64{"z": z, "c": c})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d machine cycles (%.2f cycles per result)\n",
		stats.Cycles, float64(stats.Cycles)/float64(len(z)))

	worst := 0.0
	for i, x := range z {
		want := 0.0
		for _, cv := range c {
			want = want*x + cv
		}
		if d := math.Abs(out["results"][i] - want); d > worst {
			worst = d
		}
	}
	fmt.Printf("P(%.2f) = %.6f, P(%.2f) = %.6f, ... (100 points)\n",
		z[0], out["results"][0], z[99], out["results"][99])
	fmt.Printf("max deviation from Horner's rule: %g\n", worst)
	if worst > 1e-9 {
		log.Fatal("results diverge from the reference")
	}
	fmt.Println("OK")
}
