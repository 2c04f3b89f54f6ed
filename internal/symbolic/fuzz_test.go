package symbolic

import (
	"math/rand"
	"testing"

	"warp/internal/driver"
	"warp/internal/workloads"
)

// FuzzSymbolicInstantiation is the differential fuzzer for the symbolic
// compile path, alongside the driver's FuzzCompileParallel: a random
// (workload family, compile mode, bound vector) triple — including
// degenerate, below-base and off-lattice bounds — must behave exactly
// like a concrete compile of the substituted source.  Accepted bounds
// must produce fingerprint-identical artifacts whether they were served
// from closed forms or by fallback, and rejected bounds must be
// rejected by both paths.  Templates are shared across executions
// through a map keyed by (source, pipeline), so class state
// accumulated by earlier inputs is itself under test.  A quarter of the
// draws sample a deep-loop polynomial at sizes on both sides of the
// verifier's cycle caps, where a rejection must carry the concrete
// compile's exact error.  The seed corpus runs as a regular test;
// explore with
// `go test -fuzz=FuzzSymbolicInstantiation ./internal/symbolic`.
func FuzzSymbolicInstantiation(f *testing.F) {
	// Seeds 123 and 71 draw the deep-loop polynomial below and above
	// the cycle cap (TestInstantiationRejectsPastVerifierCaps covers a
	// rejection served from an already fitted class).
	for _, seed := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 123, 71} {
		f.Add(seed)
	}
	type tmplKey struct {
		src      string
		pipeline bool
	}
	tmpls := map[tmplKey]*Template{}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var src string
		bounds := map[string]int64{}
		switch rng.Intn(4) {
		case 0:
			src = workloads.MatmulSym()
			bounds["n"] = int64(rng.Intn(40)) // 0 and 1 included: degenerate sizes must reject identically
		case 1:
			src = workloads.Conv1DSym()
			bounds["k"] = int64(rng.Intn(14))
			bounds["n"] = int64(rng.Intn(96))
		case 2:
			src = workloads.PolynomialSym()
			bounds["ncoef"] = int64(rng.Intn(14))
			bounds["npoints"] = int64(rng.Intn(80))
		default:
			// At ~180 cycles per point, 2^15–2^17 points straddle the
			// verifier's 2^24-cycle emulation cap (~92K points) while
			// the streams stay small.
			src = deepPolynomialSym()
			bounds["ncoef"] = 2 + int64(rng.Intn(9))
			bounds["npoints"] = 1<<15 + rng.Int63n(3<<15)
		}
		opts := driver.Options{Pipeline: rng.Intn(2) == 1, Verify: true}

		key := tmplKey{src, opts.Pipeline}
		tmpl := tmpls[key]
		if tmpl == nil {
			var err error
			if tmpl, err = CompileTemplate(src, opts); err != nil {
				t.Fatalf("template build: %v\n%s", err, src)
			}
			tmpls[key] = tmpl
		}
		conc, cerr := tmpl.Source.Concrete(bounds)
		if cerr != nil {
			t.Fatalf("bound substitution: %v", cerr)
		}

		inst, ierr := tmpl.Instantiate(bounds)
		ref, rerr := driver.Compile(conc, opts)
		if (ierr == nil) != (rerr == nil) {
			t.Fatalf("acceptance diverged at %v (pipeline=%v): template says %v, concrete says %v",
				bounds, opts.Pipeline, ierr, rerr)
		}
		if ierr != nil {
			if ierr.Error() != rerr.Error() {
				t.Fatalf("rejection diverged at %v (pipeline=%v):\ntemplate: %v\nconcrete: %v",
					bounds, opts.Pipeline, ierr, rerr)
			}
			return
		}
		ifp, rfp := driver.Fingerprint(inst), driver.Fingerprint(ref)
		if ifp != rfp {
			t.Fatalf("artifacts diverged at %v (pipeline=%v):\n%s", bounds, opts.Pipeline, firstDiff(ifp, rfp))
		}
	})
}
