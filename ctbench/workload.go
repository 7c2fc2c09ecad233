package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime/metrics"
	"time"
)

// figure is one named measurement with its unit and the number of
// observations behind it.
type figure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Count int     `json:"count"`
}

// ratio is a counter ratio reported with its base.
type ratio struct {
	Value float64 `json:"value"`
	Num   uint64  `json:"num"`
	Base  uint64  `json:"base"`
}

func newRatio(num, base uint64) ratio {
	r := ratio{Num: num, Base: base}
	if base > 0 {
		r.Value = float64(num) / float64(base)
	}
	return r
}

// phase is what one timed stretch of a workload observed.
type phase struct {
	Workload string        `json:"workload"`
	Traced   bool          `json:"traced"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// Stretch is the length ops' At values span: the measured window
	// (the schedule's length for the open loop, which Elapsed exceeds by
	// the final drain).
	Stretch   time.Duration `json:"stretch_ns"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Samples   int64         `json:"samples"`

	// ops is every successful operation.
	ops []opRec
	// cpu, when set, is the process's CPU time over the measured stretch
	// (from the same origin as ops' At): the open loop's throughput is
	// per CPU second, since its wall rate is the schedule's.
	cpu *cpuClock
	// RSSMeanMB is the process's mean resident memory over the warm-up,
	// before the measured stretch: what the benchmark keeps per measured
	// operation (latency records, signatures awaiting verification) grows
	// with throughput and is left out.  A mean, not the peak: the peak
	// moves by 10-40% between runs with the timing of garbage collections.
	RSSMeanMB float64 `json:"rss_mean_mb"`
	// StealS is the CPU steal time over the measured stretch.
	StealS float64 `json:"steal_s"`

	// Figures are the workload's own named results (the names the
	// workload table documents), Counters its layer counters.
	Figures  map[string]figure `json:"figures"`
	Counters map[string]any    `json:"counters,omitempty"`
	Checks   []check           `json:"checks"`
	Runtime  runtimeDelta      `json:"runtime"`
}

// opRec is one successful operation: when it happened (ns from the
// start of the measured stretch: completion for closed loops, due time
// for the open loop), its latency in ns and the samples it delivered.
type opRec struct {
	At  int64
	Lat float64
	N   int
}

// latencies is every operation's latency (ns).
func (p *phase) latencies() dist {
	d := make(dist, len(p.ops))
	for i, o := range p.ops {
		d[i] = o.Lat
	}
	return d
}

// throughput is the phase's end-to-end rate: samples per second for
// pool-stream, completed operations per second otherwise.
func throughput(p *phase) float64 {
	if p.Workload == "pool-stream" {
		return float64(p.Samples) / p.Elapsed.Seconds()
	}
	return float64(p.Attempted-p.Failed) / p.Elapsed.Seconds()
}

// check is one correctness verdict.
type check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// gate records a distribution check; a failed gate counts as one failed
// operation.
func (p *phase) gate(c check) {
	p.Checks = append(p.Checks, c)
	if !c.Pass {
		p.Failed++
	}
}

// subSeed derives a labelled 32-byte seed from the workload seed, so
// every input stream of the benchmark is a function of --seed alone.
func subSeed(seed uint64, label string) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	h := sha256.Sum256(append([]byte("ctbench/"+label+"/"), b[:]...))
	return h[:]
}

// newRand returns a PCG stream keyed by the workload seed and a label.
func newRand(seed uint64, label string) *rand.Rand {
	s := subSeed(seed, label)
	return rand.New(rand.NewPCG(binary.BigEndian.Uint64(s[:8]), binary.BigEndian.Uint64(s[8:16])))
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(r *rand.Rand, lo, hi int) int {
	v := int(math.Floor(float64(lo) * math.Pow(float64(hi+1)/float64(lo), r.Float64())))
	return min(max(v, lo), hi)
}

// runtimeDelta is the Go runtime's allocation and GC activity over a
// phase, from runtime/metrics.
type runtimeDelta struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeDelta {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeDelta{AllocBytes: s[0].Value.Uint64(), GCCycles: s[1].Value.Uint64()}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{AllocBytes: a.AllocBytes - b.AllocBytes, GCCycles: a.GCCycles - b.GCCycles}
}
