// Color separation: the paper's ColorSeg workload — each of the ten
// cells holds one reference color, and every image pixel is labelled
// with the class of the nearest one (§7, Table 7-1).  The running best
// distance and class flow through the array on channel Y while the
// pixel stream flows on X, so the whole classification is a single pass
// through the array.
package main

import (
	"fmt"
	"log"
	"math"

	"warp"
	"warp/internal/workloads"
)

func main() {
	const side, ncells = 24, 10
	src := workloads.ColorSeg(side, side, ncells)

	// Ten reference colors spread over a color wheel.
	refs := make([]float64, 4*ncells)
	for c := 0; c < ncells; c++ {
		angle := float64(c) / ncells * 2 * math.Pi
		refs[4*c] = 128 + 100*math.Cos(angle)
		refs[4*c+1] = 128 + 100*math.Sin(angle)
		refs[4*c+2] = float64(c) * 25
		refs[4*c+3] = float64(c)
	}
	// A synthetic image: smooth gradients.
	image := make([]float64, 3*side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			i := y*side + x
			image[3*i] = float64(x) / side * 255
			image[3*i+1] = float64(y) / side * 255
			image[3*i+2] = 128
		}
	}

	prog, err := warp.Compile(src, warp.Options{Pipeline: true})
	if err != nil {
		log.Fatal(err)
	}
	inputs := map[string][]float64{"refs": refs, "image": image}
	out, stats, err := prog.RunWith(warp.RunConfig{}, inputs)
	if err != nil {
		log.Fatal(err)
	}
	want := workloads.ColorSegRef(refs, image)
	hist := make([]int, ncells)
	for i, cls := range out["classes"] {
		if cls != want[i] {
			log.Fatalf("pixel %d classified %v, want %v", i, cls, want[i])
		}
		hist[int(cls)]++
	}
	fmt.Printf("segmented %dx%d image on %d cells in %d cycles (skew %d)\n",
		side, side, prog.Cells(), stats.Cycles, prog.Skew())
	fmt.Print("class histogram:")
	for c, n := range hist {
		fmt.Printf(" %d:%d", c, n)
	}
	fmt.Println("\nclassification verified against the host reference: OK")
}
