// Command ctbench is the repository's benchmark: three workloads over the
// whole stack (pool-stream, daemon-open, falcon-sign), checked for
// correctness, reporting end-to-end metrics untraced and per-layer
// metrics from a separate traced run.  See README.md for the workloads,
// the metric definitions and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ctgauss/falcon"
)

var workloads = []string{"pool-stream", "daemon-open", "falcon-sign"}

// Extra cold set-ups, each in a fresh process, join the run's own set-up
// in the setup_s median: at least minProbes, then more while they fit in
// probeBudget, up to maxProbes.
const (
	minProbes   = 4
	maxProbes   = 10
	probeBudget = 4 * time.Second
)

// outDir holds traced runs' span files, relative to the checkout root.
const outDir = ".bench_build/traces"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// rate is daemon-open's offered load: defaultRate, or lower in tests.
	rate     float64
	spansDir string // where a traced run writes its spans
	// probeExe is the binary re-run for cold set-up probes; empty means
	// setup_s is the run's own set-up alone.
	probeExe string
}

func main() {
	var o options
	var traceFlag int
	var probe bool
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every generated input is a function of it")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced run)")
	flag.BoolVar(&probe, "setup-probe", false, "time one cold set-up of the workload and exit (used by the run itself)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.rate = defaultRate
	o.spansDir = outDir
	if !validWorkload(o.workload) || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "ctbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	// Set-up time is measured cold: no on-disk circuit cache.
	os.Unsetenv("CTGAUSS_CACHE_DIR")

	if probe {
		s, err := timedSetup(o)
		if err != nil {
			fatal(err)
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
		return
	}
	var err error
	if o.probeExe, err = os.Executable(); err != nil {
		fatal(err)
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// fatal reports err and exits without printing a result line.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ctbench:", err)
	os.Exit(1)
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// instance is a set-up workload.
type instance interface {
	run(ctx context.Context, warm, d time.Duration, tr *tracer) (*phase, error)
	close()
}

// setup builds a workload instance; sk, when set, replaces key
// generation.
func setup(o options, workload string, traced bool, sk *falcon.PrivateKey) (instance, error) {
	procs := runtime.GOMAXPROCS(0)
	switch workload {
	case "pool-stream":
		return newPoolStream(o.seed, procs)
	case "daemon-open":
		return newDaemonOpen(o.seed, procs, o.rate, traced, sk)
	default:
		return newFalconSign(o.seed, procs, sk)
	}
}

// timedSetup builds and tears down the workload once, returning the
// seconds from construction until it was ready to serve.
func timedSetup(o options) (float64, error) {
	t0 := time.Now()
	in, err := setup(o, o.workload, false, nil)
	if err != nil {
		return 0, err
	}
	s := time.Since(t0).Seconds()
	in.close()
	return s, nil
}

// probeSetups times cold set-ups, each in a fresh process of this
// binary, one after another.
func probeSetups(o options) ([]float64, error) {
	var out []float64
	if o.probeExe == "" {
		return out, nil
	}
	start := time.Now()
	for len(out) < minProbes || (len(out) < maxProbes && time.Since(start) < probeBudget) {
		cmd := exec.Command(o.probeExe, "--setup-probe", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10), "--seconds", "1")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// warmFor is the untimed warm-up before a measured stretch of d.
func warmFor(d time.Duration) time.Duration { return min(time.Second, d/10) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func run(ctx context.Context, o options) (*result, error) {
	rec := newRunRecord(o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("ctbench workload=%s seed=%d seconds=%g trace=%v simd=%s/%d prng=%s gomaxprocs=%d go=%s commit=%s src=%s\ncpu: %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.SIMD.Backend, rec.SIMD.Width, rec.PRNG, rec.GOMAXPROCS,
		rec.GoVersion, rec.Commit, rec.SourceHash, rec.CPU)
	if o.trace {
		return runTraced(ctx, o, rec)
	}
	return runUntraced(ctx, o, rec)
}

// runUntraced produces every end-to-end metric.
func runUntraced(ctx context.Context, o options, rec runRecord) (*result, error) {
	setups, err := probeSetups(o)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	in, err := setup(o, o.workload, false, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	setupRSS := peakRSSMB()
	d := seconds(o.seconds)
	ph, err := in.run(ctx, warmFor(d), d, nil)
	in.close()
	if err != nil {
		return nil, err
	}
	win := windowed(ph.ops, ph.Stretch, o.workload == "pool-stream", ph.cpu)
	figs := map[string]figure{
		"setup_s":          {median(setups), "s", len(setups)},
		"rss_mean_mb":      {ph.RSSMeanMB, "MB", 1},
		"throughput_per_s": {win.Throughput, "1/s", win.Windows},
		"latency_p50_us":   {win.P50 / 1e3, "us", len(ph.ops)},
	}
	lat := summarize(ph.latencies(), "us", 1e3)
	printPhase(ph)
	fmt.Printf("  latency over %d windows (median of each window's figure): p50 %.1f us, p99 %.1f us, mean %.1f us\n",
		win.Windows, win.P50/1e3, win.P99/1e3, win.Mean/1e3)
	fmt.Printf("  whole-run latency: p50 %.1f us, p99 %.1f us, p%g %.1f us, mean %.1f us (n=%d)\n",
		lat.P50, lat.P99, lat.TailPct, lat.Tail, lat.Mean, lat.Count)
	printFigures("end-to-end", figs)
	detail := map[string]any{"record": rec, "setups_s": setups, "rss_after_setup_mb": setupRSS, "phase": ph, "windows": win, "end_to_end": figs}
	return finish(detail, []*phase{ph}, endToEnd, figs)
}

// finish prints the detail line and builds the result line from figs in
// the order of defs.
func finish(detail map[string]any, phases []*phase, defs []metricDef, figs map[string]figure) (*result, error) {
	b, err := json.Marshal(detail)
	if err != nil {
		return nil, fmt.Errorf("detail: %w", err)
	}
	fmt.Println(string(b))
	res := &result{Correct: true, Metrics: map[string]value{}}
	for _, ph := range phases {
		res.Attempted += ph.Attempted
		res.Failed += ph.Failed
		for _, c := range ph.Checks {
			res.Correct = res.Correct && c.Pass
		}
	}
	res.Correct = res.Correct && res.Failed == 0 && res.Attempted > 0
	for _, m := range defs {
		f, ok := figs[m.Name]
		if !ok || math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{f.Value, m.Unit}
	}
	return res, nil
}

func printPhase(ph *phase) {
	fmt.Printf("phase %s traced=%v: %d attempted, %d failed in %.2fs (host CPU steal %.2fs)\n",
		ph.Workload, ph.Traced, ph.Attempted, ph.Failed, ph.Elapsed.Seconds(), ph.StealS)
	printFigures("  "+ph.Workload, ph.Figures)
	passed := 0
	for _, c := range ph.Checks {
		if !c.Pass {
			fmt.Printf("  check %-28s FAIL  %s\n", c.Name, c.Detail)
			continue
		}
		passed++
		if !strings.HasPrefix(c.Name, "gof.arbitrary.") {
			fmt.Printf("  check %-28s pass  %s\n", c.Name, c.Detail)
		}
	}
	fmt.Printf("  checks: %d of %d pass\n", passed, len(ph.Checks))
}

func printFigures(title string, figs map[string]figure) {
	names := make([]string, 0, len(figs))
	for n := range figs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title + ":")
	for _, n := range names {
		f := figs[n]
		fmt.Printf("    %-44s %14.6g %-6s (n=%d)\n", n, f.Value, f.Unit, f.Count)
	}
}

// spanFile is where a traced run writes its spans.
func spanFile(o options) string {
	return filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
}
