package symbolic

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/driver"
	"warp/internal/workloads"
)

// symWorkloads pairs each symbolic workload with its concrete
// generator and a sweep of bound vectors (the first is the class base;
// later ones must hit the fitted class).
type symCase struct {
	name   string
	src    string
	sweep  []map[string]int64
	concAt func(b map[string]int64) string
}

func symCases() []symCase {
	matmulSweep := []map[string]int64{}
	for n := int64(8); n <= 44; n += 6 {
		matmulSweep = append(matmulSweep, map[string]int64{"n": n})
	}
	convSweep := []map[string]int64{}
	for n := int64(32); n <= 128; n += 24 {
		convSweep = append(convSweep, map[string]int64{"k": 5, "n": n})
	}
	polySweep := []map[string]int64{}
	for np := int64(40); np <= 160; np += 40 {
		polySweep = append(polySweep, map[string]int64{"ncoef": 8, "npoints": np})
	}
	return []symCase{
		{
			name: "matmul", src: workloads.MatmulSym(), sweep: matmulSweep,
			concAt: func(b map[string]int64) string { return workloads.Matmul(int(b["n"])) },
		},
		{
			name: "conv1d", src: workloads.Conv1DSym(), sweep: convSweep,
			concAt: func(b map[string]int64) string { return workloads.Conv1D(int(b["k"]), int(b["n"])) },
		},
		{
			name: "polynomial", src: workloads.PolynomialSym(), sweep: polySweep,
			concAt: func(b map[string]int64) string {
				return workloads.Polynomial(int(b["ncoef"]), int(b["npoints"]))
			},
		},
	}
}

// TestSymbolicSourceMatchesGenerators pins the substitution contract:
// the symbolic workload sources reproduce their concrete generators
// byte for byte, so templates and generator-driven tools compile the
// same programs.
func TestSymbolicSourceMatchesGenerators(t *testing.T) {
	for _, tc := range symCases() {
		src, err := ParseSource(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, bounds := range tc.sweep {
			conc, err := src.Concrete(bounds)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, bounds, err)
			}
			if want := tc.concAt(bounds); conc != want {
				t.Fatalf("%s %v: substituted source differs from generator output", tc.name, bounds)
			}
		}
	}
}

// TestInstantiateMatchesConcrete is the core differential contract of
// the subsystem: across the workload sweep, plain and pipelined, every
// instantiated artifact must carry the same fingerprint as a cold
// compile of the substituted source.  In plain mode every sweep point
// must additionally be served symbolically (conv1d exercises axis
// pinning: its k axis saturates a verifier statistic, so the class
// pins k and interpolates along n).  In pipelined mode the modulo
// scheduler's placements shift with the concrete sizes, so only the
// class base replays symbolically (as a point class) and the rest must
// fall back — detected by the skeleton check, never by a consumer.
func TestInstantiateMatchesConcrete(t *testing.T) {
	cases := symCases()
	if testing.Short() {
		for i := range cases {
			cases[i].sweep = cases[i].sweep[:2]
		}
	}
	for _, tc := range cases {
		for _, pipe := range []bool{false, true} {
			mode := "plain"
			if pipe {
				mode = "pipelined"
			}
			tc := tc
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				opts := driver.Options{Pipeline: pipe, Verify: true}
				tmpl, err := CompileTemplate(tc.src, opts)
				if err != nil {
					t.Fatal(err)
				}
				symbolicHits := 0
				for _, bounds := range tc.sweep {
					inst, detail, err := tmpl.InstantiateObserved(bounds, nil)
					if err != nil {
						t.Fatalf("instantiate %v: %v", bounds, err)
					}
					conc, err := driver.Compile(tc.concAt(bounds), opts)
					if err != nil {
						t.Fatalf("concrete compile %v: %v", bounds, err)
					}
					got, want := driver.Fingerprint(inst), driver.Fingerprint(conc)
					if got != want {
						t.Errorf("%v (symbolic=%v): instantiated artifact diverged:\n%s",
							bounds, detail.Symbolic, firstDiff(want, got))
					}
					if detail.Symbolic {
						symbolicHits++
					}
				}
				if !pipe && symbolicHits < len(tc.sweep) {
					t.Errorf("only %d/%d sweep points served symbolically (want all: the sweep is one residue class)",
						symbolicHits, len(tc.sweep))
				}
				if pipe && symbolicHits < 1 {
					t.Error("pipelined class base not served symbolically (point class expected)")
				}
				if st := tmpl.Stats(); st.Instantiations != int64(symbolicHits) || st.ClassBuilds == 0 {
					t.Errorf("stats %+v inconsistent with %d symbolic hits", st, symbolicHits)
				}
			})
		}
	}
}

// TestInstantiateRunsIdentically closes the loop end to end: an
// instantiated matmul must simulate to the same outputs and cycle
// count as its cold-compiled twin, on both backends.
func TestInstantiateRunsIdentically(t *testing.T) {
	tmpl, err := CompileTemplate(workloads.MatmulSym(), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	if _, err := tmpl.Instantiate(map[string]int64{"n": 8}); err != nil {
		t.Fatal(err)
	}
	inst, detail, err := tmpl.InstantiateObserved(map[string]int64{"n": n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !detail.Symbolic {
		t.Fatalf("n=%d not served symbolically: %s", n, detail.FallbackReason)
	}
	conc, err := driver.Compile(workloads.Matmul(n), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}
	inputs := map[string][]float64{"a": a, "bmat": b}
	for _, backend := range []string{driver.BackendSim, driver.BackendFast} {
		iOut, iStats, err := driver.RunWith(inst, inputs, driver.RunOptions{Backend: backend})
		if err != nil {
			t.Fatalf("%s: run instantiated: %v", backend, err)
		}
		cOut, cStats, err := driver.RunWith(conc, inputs, driver.RunOptions{Backend: backend})
		if err != nil {
			t.Fatalf("%s: run concrete: %v", backend, err)
		}
		if iStats.Cycles != cStats.Cycles {
			t.Errorf("%s: %d cycles instantiated, %d concrete", backend, iStats.Cycles, cStats.Cycles)
		}
		want := workloads.MatmulRef(a, b, n)
		for i, v := range iOut["c"] {
			if v != cOut["c"][i] || v != want[i] {
				t.Fatalf("%s: c[%d] = %g (concrete %g, reference %g)", backend, i, v, cOut["c"][i], want[i])
			}
		}
	}
	if inst.ModeledCycles() != conc.ModeledCycles() {
		t.Errorf("modeled cycles %d != concrete %d", inst.ModeledCycles(), conc.ModeledCycles())
	}
}

// TestOffLatticeFallsBack: bounds below a class base fall back to a
// concrete compile — transparently, and still fingerprint-identical to
// a cold compile — while bounds in a different residue class get their
// own class fitted on demand.  (Matmul's discovered period is 6: its
// IU distribution loop unrolls.)
func TestOffLatticeFallsBack(t *testing.T) {
	tmpl, err := CompileTemplate(workloads.MatmulSym(), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tmpl.InstantiateObserved(map[string]int64{"n": 16}, nil); err != nil {
		t.Fatal(err)
	}
	// n=10 ≡ 16 (mod 6): same class, below its base — must fall back.
	inst, detail, err := tmpl.InstantiateObserved(map[string]int64{"n": 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Symbolic {
		t.Fatal("n=10 (below the class base) unexpectedly served symbolically")
	}
	conc, err := driver.Compile(workloads.Matmul(10), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if driver.Fingerprint(inst) != driver.Fingerprint(conc) {
		t.Error("n=10: fallback artifact differs from cold compile")
	}
	// n=9 ≢ 16 (mod 6): a new residue class, fitted on first request.
	inst, detail, err = tmpl.InstantiateObserved(map[string]int64{"n": 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !detail.Symbolic || !detail.ClassBuilt {
		t.Fatalf("n=9 should fit its own residue class (detail %+v)", detail)
	}
	conc, err = driver.Compile(workloads.Matmul(9), driver.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if driver.Fingerprint(inst) != driver.Fingerprint(conc) {
		t.Error("n=9: new-class artifact differs from cold compile")
	}
	if st := tmpl.Stats(); st.Fallbacks != 1 || st.ClassBuilds != 2 {
		t.Errorf("stats %+v, want 1 fallback and 2 class builds", st)
	}
}

// TestBoundsValidation: missing and unknown parameters fail loudly.
func TestBoundsValidation(t *testing.T) {
	tmpl, err := CompileTemplate(workloads.MatmulSym(), driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tmpl.Params(); len(got) != 1 || got[0] != "n" {
		t.Fatalf("Params() = %v, want [n]", got)
	}
	if _, err := tmpl.Instantiate(nil); err == nil || !strings.Contains(err.Error(), "missing bound") {
		t.Errorf("missing bound: err = %v", err)
	}
	if _, err := tmpl.Instantiate(map[string]int64{"n": 8, "m": 3}); err == nil || !strings.Contains(err.Error(), "not a template parameter") {
		t.Errorf("unknown bound: err = %v", err)
	}
	if _, err := CompileTemplate("module m (a in)\n", driver.Options{}); err == nil {
		t.Error("CompileTemplate accepted source with no placeholders")
	}
}

// firstDiff mirrors the driver equivalence harness's failure rendering.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  concrete:     %q\n  instantiated: %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: concrete %d lines, instantiated %d lines", len(wl), len(gl))
}

// deepPolynomialSym is PolynomialSym with each point's Horner step
// iterated 16 times: ~180 cycles per point against one stream word, so
// it crosses the verifier's cycle caps at a problem size whose streams
// are small.
func deepPolynomialSym() string {
	src := strings.Replace(workloads.PolynomialSym(),
		"ans := coeff + yin*xin;",
		"ans := yin;\n            for j := 0 to 15 do begin ans := coeff + ans*xin; end;", 1)
	return strings.Replace(src, "int i;", "int i, j;", 1)
}

// TestInstantiationRejectsPastVerifierCaps: an instantiation inherits
// its class base's proof, so past a verifier size cap it must reject
// exactly as a concrete verified compile does — the same unproven
// error — rather than claim "verified".  PolynomialSym at 2M points
// also crosses the skew search's method limit and is served by a
// concrete fallback; the deep-loop variant (160 cycles per point)
// crosses the cycle cap while its streams stay under that limit, so
// the closed-form cap check rejects it without any concrete compile.
func TestInstantiationRejectsPastVerifierCaps(t *testing.T) {
	for _, tc := range []struct {
		name       string
		src        string
		npoints    int64
		noFallback bool
	}{
		{"polynomial", workloads.PolynomialSym(), 2000000, false},
		{"deep-loop", deepPolynomialSym(), 200000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := driver.Options{Verify: true}
			tmpl, err := CompileTemplate(tc.src, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Build the class at a small size first, so the large point
			// is served from the fitted closed forms.
			if _, d, err := tmpl.InstantiateObserved(map[string]int64{"ncoef": 10, "npoints": 64}, nil); err != nil || !d.Symbolic {
				t.Fatalf("class base: detail %+v, error %v", d, err)
			}
			fallbacks := tmpl.Stats().Fallbacks
			bounds := map[string]int64{"ncoef": 10, "npoints": tc.npoints}
			_, ierr := tmpl.Instantiate(bounds)
			if tc.noFallback && tmpl.Stats().Fallbacks != fallbacks {
				t.Errorf("rejection went through a concrete fallback compile")
			}
			conc, err := tmpl.Source.Concrete(bounds)
			if err != nil {
				t.Fatal(err)
			}
			_, cerr := driver.Compile(conc, opts)
			if ierr == nil || cerr == nil {
				t.Fatalf("instantiation error %v, concrete error %v: both must reject", ierr, cerr)
			}
			if ierr.Error() != cerr.Error() {
				t.Fatalf("errors differ:\ntemplate: %v\nconcrete: %v", ierr, cerr)
			}
			if !strings.Contains(ierr.Error(), "verify: [unproven]") {
				t.Fatalf("error %q is not the verifier's unproven rejection", ierr)
			}
		})
	}
}

// TestSkewMethodLimitFallsBack: the skew search switches from exact
// enumeration to the pairwise bound past a stream-size limit, which
// changes the search record (and may change the skew), so a class
// fitted below the limit must not serve bounds above it.
func TestSkewMethodLimitFallsBack(t *testing.T) {
	tmpl, err := CompileTemplate(workloads.PolynomialSym(), driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, d, err := tmpl.InstantiateObserved(map[string]int64{"ncoef": 2, "npoints": 64}, nil); err != nil || !d.Symbolic {
		t.Fatalf("class base: detail %+v, error %v", d, err)
	}
	c, d, err := tmpl.InstantiateObserved(map[string]int64{"ncoef": 2, "npoints": 1<<20 + 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Symbolic || !strings.Contains(d.FallbackReason, "skew search changes method") {
		t.Fatalf("served past the skew enumeration limit: detail %+v", d)
	}
	for _, rec := range c.Sched.Skews {
		if rec.Method != "bound" {
			t.Errorf("channel %s searched by %q, want the pairwise bound", rec.Channel, rec.Method)
		}
	}
}
