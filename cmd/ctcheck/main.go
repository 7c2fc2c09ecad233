// Command ctcheck is the acceptance-harness driver: the dudect-style
// constant-time analysis the paper applies to its sampler (§5.2), the
// statistical (σ, μ) grid cross-validated against the high-precision
// bigfp reference, and the golden-vector stream pins — emitting one
// machine-readable JSON report CI gates on (see docs/ACCEPTANCE.md).
//
// Modes (combinable; default -ct, the historical behaviour):
//
//	ctcheck -ct                          constant-time pass (dudect + work counts)
//	ctcheck -ct -sigma 2 -n 64           ... for one configuration
//	ctcheck -grid                        full statistical grid, three surfaces
//	ctcheck -grid -smoke                 budgeted PR grid
//	ctcheck -golden verify               check pinned streams at every depth
//	ctcheck -golden record               re-pin streams (intentional changes only)
//	ctcheck -grid -ct -json report.json  machine-readable artifact; exit 1 on failure
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ctgauss/internal/acceptance"
	"ctgauss/internal/sampler/gen"
)

func main() {
	var (
		grid    = flag.Bool("grid", false, "run the statistical (σ, μ) grid over all serving surfaces")
		golden  = flag.String("golden", "", "golden-vector mode: record or verify")
		ct      = flag.Bool("ct", false, "run the constant-time pass (default when no mode is given)")
		smoke   = flag.Bool("smoke", false, "budgeted pass: fewer cells, fewer samples, fewer measurements")
		jsonOut = flag.String("json", "", "write the machine-readable report to this path (- for stdout)")

		sigmas  = flag.String("sigma", "", "comma-separated σ list for -ct (default: all registry-served σ)")
		n       = flag.Int("n", 128, "probability precision bits for -ct builds")
		tailcut = flag.Float64("tailcut", 13, "tail cut τ for -ct builds")
		meas    = flag.Int("measurements", 0, "timing samples per dudect class (0 = mode default)")

		samples    = flag.Int("samples", 0, "samples per grid cell (0 = mode default)")
		goldenFile = flag.String("golden-file", "internal/acceptance/testdata/golden.json", "golden vector file")
	)
	flag.Parse()
	if !*grid && *golden == "" && !*ct {
		*ct = true
	}

	// Human-readable progress moves to stderr when the JSON report owns
	// stdout, so `ctcheck -json - | jq` stays parseable.
	hout := os.Stdout
	if *jsonOut == "-" {
		hout = os.Stderr
	}
	logf := func(format string, args ...any) { fmt.Fprintf(hout, format+"\n", args...) }
	rep := &acceptance.Report{Smoke: *smoke}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ctcheck:", err)
		os.Exit(1)
	}

	if *golden != "" {
		rep.Modes = append(rep.Modes, "golden-"+*golden)
		switch *golden {
		case "record":
			gf, err := acceptance.RecordGolden(*goldenFile)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(hout, "recorded %d golden vectors to %s\n", len(gf.Vectors), *goldenFile)
			for _, v := range gf.Vectors {
				fmt.Fprintf(hout, "  %-26s %s…\n", v.Name, v.SHA256[:16])
				rep.Golden = append(rep.Golden, acceptance.GoldenResult{
					Name: v.Name, PRNG: v.PRNG, SHA256: v.SHA256, Pass: true,
				})
			}
		case "verify":
			fmt.Fprintln(hout, "golden-vector verification (every stream × backend × width × prefetch depth):")
			results, err := acceptance.VerifyGolden(*goldenFile)
			if err != nil {
				fail(err)
			}
			rep.Golden = results
			for _, r := range results {
				if r.Pass {
					fmt.Fprintf(hout, "  %-26s ok on %v at widths %v, depths %v\n", r.Name, r.Backends, r.Widths, r.DepthsVerified)
				} else {
					fmt.Fprintf(hout, "  %-26s FAIL: %s\n", r.Name, r.Err)
				}
			}
		default:
			fail(fmt.Errorf("unknown -golden mode %q (want record or verify)", *golden))
		}
	}

	if *grid {
		rep.Modes = append(rep.Modes, "grid")
		kind := "full"
		if *smoke {
			kind = "smoke"
		}
		fmt.Fprintf(hout, "statistical grid (%s): compiled + convolved + http surfaces vs bigfp reference\n", kind)
		g, err := acceptance.RunGrid(acceptance.GridOptions{
			Smoke:          *smoke,
			SamplesPerCell: *samples,
			Logf:           logf,
		})
		if err != nil {
			fail(err)
		}
		rep.Grid = g
		fmt.Fprintf(hout, "grid: %d cells, pass=%v\n", len(g.Cells), g.Pass)
	}

	if *ct {
		rep.Modes = append(rep.Modes, "ct")
		var sigmaList []string
		if *sigmas != "" {
			for _, s := range strings.Split(*sigmas, ",") {
				if s = strings.TrimSpace(s); s != "" {
					sigmaList = append(sigmaList, s)
				}
			}
		} else if !*smoke {
			sigmaList = gen.Sigmas()
		}
		fmt.Fprintln(hout, "dudect-style timing analysis + deterministic work counts")
		fmt.Fprintln(hout, "(wall clock under a GC runtime is noisy; the work ledgers are the exact evidence)")
		timing, work, err := acceptance.RunCT(acceptance.CTOptions{
			Sigmas:       sigmaList,
			N:            *n,
			TailCut:      *tailcut,
			Measurements: *meas,
			Smoke:        *smoke,
			Logf:         logf,
		})
		if err != nil {
			fail(err)
		}
		rep.Timing, rep.Work = timing, work
	}

	rep.Finalize()
	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteJSON(w); err != nil {
			fail(err)
		}
	}
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "ctcheck: FAIL")
		os.Exit(1)
	}
	fmt.Fprintln(hout, "ctcheck: PASS")
}
