package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"ctgauss"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(7, "run1", defaultRate, 2*time.Second)
	b := schedule(7, "run1", defaultRate, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if c := schedule(8, "run1", defaultRate, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
	if n, want := float64(len(a)), 2*float64(defaultRate); math.Abs(n-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals in 2s at %d/s", n, defaultRate)
	}
	var per [numEndpoints]int
	for i, r := range a {
		per[r.Ep]++
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatal("arrivals out of order")
		}
	}
	for ep, share := range []float64{shareSamples, shareArbitrary, 1 - shareSamples - shareArbitrary} {
		if got := float64(per[ep]) / float64(len(a)); math.Abs(got-share) > 0.05 {
			t.Errorf("%s share %.3f, want %.2f", endpointNames[ep], got, share)
		}
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps a
		{Name: "b", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past root: clipped
		{Name: "leaf", ID: 5, Parent: 2, Start: 15, End: 20, Count: 5},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - (50 + 10), // children cover [10,60] and [90,100]
		"a":    30 - 5,
		"b":    30 + 30,
		"leaf": 5,
	}
	for name, self := range want {
		if got[name].SelfNs != self {
			t.Errorf("%s self = %d, want %d", name, got[name].SelfNs, self)
		}
	}
	if got["b"].Spans != 2 || got["b"].TotalNs != 60 {
		t.Errorf("b aggregate = %+v", got["b"])
	}
	if got["leaf"].SelfNsPerCount != 1 {
		t.Errorf("leaf self per count = %v, want 1", got["leaf"].SelfNsPerCount)
	}
}

func TestOpenLoopThroughputIsPerCPUSecond(t *testing.T) {
	// 1 s of CPU over the first second, 3 s over the next (interpolated
	// between samples), and 4000 requests due in each half.
	cpu := &cpuClock{
		at:  []time.Duration{0, 500 * time.Millisecond, time.Second, 2 * time.Second},
		cpu: []float64{10, 10.5, 11, 14},
	}
	if got := cpu.between(250*time.Millisecond, 1500*time.Millisecond); math.Abs(got-2.25) > 1e-9 {
		t.Fatalf("between = %v, want 2.25", got)
	}
	var ops []opRec
	for i := 0; i < 8000; i++ {
		ops = append(ops, opRec{At: int64(i) * int64(2*time.Second) / 8000, Lat: 1, N: 1})
	}
	win := windowed(ops, 2*time.Second, false, cpu)
	if win.Windows != 4 || !reflect.DeepEqual(win.PerWindow, []float64{4000, 4000, 4000.0 / 3, 4000.0 / 3}) {
		t.Fatalf("per-window throughput %v over %d windows", win.PerWindow, win.Windows)
	}
	if wall := windowed(ops, 2*time.Second, false, nil); wall.Throughput != 4000 {
		t.Fatalf("wall throughput %v, want 4000", wall.Throughput)
	}
}

func TestParseSamples(t *testing.T) {
	count, xs, err := parseSamples([]byte(`{"sigma":"2","count":4,"samples":[3,-1,0,-12]}`))
	if err != nil || count != 4 || !reflect.DeepEqual(xs, []int{3, -1, 0, -12}) {
		t.Fatalf("got %d %v %v", count, xs, err)
	}
	for _, bad := range []string{`{"count":2,"samples":[1,,2]}`, `{"count":2,"samples":[1,2`, `{"samples":[1]}`, `{"count":1,"samples":[1x]}`} {
		if _, _, err := parseSamples([]byte(bad)); err == nil {
			t.Errorf("%s: no error", bad)
		}
	}
}

func TestGOFGate(t *testing.T) {
	p, err := ctgauss.NewPool("2", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	xs := make([]int, 50_000)
	if err := p.Take(context.Background(), xs); err != nil {
		t.Fatal(err)
	}
	if c := gof("sound", []drawSet{{sigma: 2, samples: xs}}); !c.Pass {
		t.Fatalf("sound sampler rejected: %s", c.Detail)
	}
	// The same draws read as D_{2,μ=0.5} must fail.
	if c := gof("shifted", []drawSet{{sigma: 2, mu: 0.5, samples: xs}}); c.Pass {
		t.Fatalf("wrong centre accepted: %s", c.Detail)
	}
	if c := gof("wide", []drawSet{{sigma: 2.5, samples: xs}}); c.Pass {
		t.Fatalf("wrong width accepted: %s", c.Detail)
	}
}

// TestSmoke runs each workload for a moment untraced, then one tiny
// traced run, and checks that every declared metric comes out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds circuits and a Falcon-512 key")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 3, seconds: 0.3, rate: 200, spansDir: t.TempDir()}
			res, err := runUntraced(context.Background(), o, newRunRecord(w, o.seed, o.seconds, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			checkMetrics(t, res, endToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		o := options{workload: "falcon-sign", seed: 3, seconds: 1, trace: true, rate: 200, spansDir: t.TempDir()}
		res, err := runTraced(context.Background(), o, newRunRecord(o.workload, o.seed, o.seconds, true))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("result %+v", res)
		}
		checkMetrics(t, res, perLayer())
		for _, p := range []string{spanFile(o), selfFile(spanFile(o))} {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Fatalf("%s not written: %v", p, err)
			}
		}
	})
}

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s: %+v (present %v)", d.Name, v, ok)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program has %v", names, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's list")
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the program's list")
	}
}
