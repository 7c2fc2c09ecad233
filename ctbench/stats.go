package main

import (
	"math"
	"sort"
	"time"
)

// dist is a set of observations (durations in ns, or any figure) kept
// whole so percentiles are exact.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending dist (NaN when
// empty).
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// median of an unsorted slice (NaN when empty).
func median(xs []float64) float64 { return dist(xs).sorted().quantile(0.5) }

// tailPercentiles are the candidates for a distribution's reported tail.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the highest percentile of tailPercentiles that has at
// least ten observations beyond it, and its value, for an ascending dist.
func (d dist) tail() (pct, value float64) {
	for _, p := range tailPercentiles {
		if float64(len(d))*(1-p/100) >= 10 {
			return p, d.quantile(p / 100)
		}
	}
	return 0, d.quantile(1)
}

// summary is a latency distribution as the result reports it.
type summary struct {
	Count   int     `json:"count"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	Mean    float64 `json:"mean"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	Max     float64 `json:"max"`
	Unit    string  `json:"unit"`
}

// summarize converts ns observations to unit (scale = ns per unit).
func summarize(d dist, unit string, scale float64) summary {
	s := d.sorted()
	pct, tail := s.tail()
	return summary{
		Count: len(s), P50: s.quantile(0.5) / scale, P99: s.quantile(0.99) / scale,
		Mean: s.mean() / scale, TailPct: pct, Tail: tail / scale, Max: s.quantile(1) / scale, Unit: unit,
	}
}

// Windowing: a measured stretch is cut into equal windows and each
// end-to-end figure is the median across windows, so a burst of noise
// from outside the benchmark moves one window, not the figure.  Windows
// hold at least minWindowOps operations, so each window's p99 has at
// least twenty observations beyond it.
const (
	maxWindows   = 15
	minWindowOps = 2000
)

// windowFigures are the medians across windows of each window's figure.
type windowFigures struct {
	Windows    int     `json:"windows"`
	Throughput float64 `json:"throughput_per_s"`
	P50        float64 `json:"p50_ns"`
	P99        float64 `json:"p99_ns"`
	Mean       float64 `json:"mean_ns"`
	// PerWindow is each window's throughput, in order.
	PerWindow []float64 `json:"per_window_throughput"`
}

// windowed splits ops over a stretch of the given length into windows.
// Throughput counts samples when bySamples, operations otherwise, per
// wall second, or per CPU second of the process when cpu is set.
func windowed(ops []opRec, stretch time.Duration, bySamples bool, cpu *cpuClock) windowFigures {
	k := min(maxWindows, max(1, len(ops)/minWindowOps))
	width := stretch.Nanoseconds() / int64(k)
	lats := make([]dist, k)
	work := make([]float64, k)
	for _, o := range ops {
		i := min(int(o.At/width), k-1)
		lats[i] = append(lats[i], o.Lat)
		if bySamples {
			work[i] += float64(o.N)
		} else {
			work[i]++
		}
	}
	var tput, p50, p99, mean []float64
	for i := range lats {
		s := lats[i].sorted()
		per := float64(width) / 1e9
		if cpu != nil {
			per = cpu.between(time.Duration(int64(i)*width), time.Duration(int64(i+1)*width))
		}
		tput = append(tput, work[i]/per)
		p50 = append(p50, s.quantile(0.5))
		p99 = append(p99, s.quantile(0.99))
		mean = append(mean, s.mean())
	}
	return windowFigures{Windows: k, Throughput: median(tput), P50: median(p50), P99: median(p99), Mean: median(mean), PerWindow: tput}
}
