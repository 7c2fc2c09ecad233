package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ctgauss"
)

// poolSigmas are pool-stream's pools: σ=2 and σ=6.15543 run the
// checked-in generated circuits (width 1), σ=4 the registry-built
// interpreter at the native SIMD width.
var poolSigmas = []string{"2", "6.15543", interpSigma}

// interpSigma is pool-stream's interpreted σ (no checked-in circuit).
const interpSigma = "4"

const (
	poolMinTake = 64
	poolMaxTake = 8192
	// poolSubsample is the draws per σ kept for the distribution gate.
	poolSubsample = 120_000
)

// poolStream is the pool-stream workload: procs closed-loop callers of
// ctgauss.Pool.Take over three ChaCha20 pools at default prefetch.
type poolStream struct {
	seed  uint64
	procs int
	pools []*ctgauss.Pool
	stats []ctgauss.Stats
	runs  int // phases run so far; each draws a fresh caller stream
}

func newPoolStream(seed uint64, procs int) (*poolStream, error) {
	w := &poolStream{seed: seed, procs: procs}
	for _, sigma := range poolSigmas {
		p, err := ctgauss.NewPoolWithConfig(ctgauss.Config{Sigma: sigma, Seed: subSeed(seed, "pool/"+sigma)}, procs)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("pool σ=%s: %w", sigma, err)
		}
		w.pools = append(w.pools, p)
		w.stats = append(w.stats, p.Stats())
	}
	return w, nil
}

func (w *poolStream) close() {
	for _, p := range w.pools {
		p.Close()
	}
}

// engineDelta is one pool's engine ledger over a phase (Pool.EngineStats
// and Pool.BitsUsed deltas), each ratio with its base.  BitsPerSampleS7
// is the §7 accounting the served figure is compared against:
// Stats.BitsPerBatch/64.
type engineDelta struct {
	PrefetchHitRatio ratio   `json:"prefetch_hit_ratio"`
	SamplesServed    uint64  `json:"samples_served"`
	RefillsStarted   uint64  `json:"refills_started"`
	BitsPerSample    ratio   `json:"bits_per_sample"`
	BitsPerSampleS7  float64 `json:"bits_per_sample_s7"`
	Width            int     `json:"width"`
}

// poolCaller is one caller goroutine's tally.
type poolCaller struct {
	tried, failed int
	samples       int64
	ops           []opRec
	bySigma       [][]float64
	drawn         [][]int // distribution-gate subsample per σ
	outOfRange    int
}

// run drives the pools for d.  Each caller draws its (pool, length)
// sequence from the workload seed; the first warm of the phase fills the
// engines' rings and collects the distribution subsample untimed.
func (w *poolStream) run(ctx context.Context, warm, d time.Duration, tr *tracer) (*phase, error) {
	w.runs++
	before := make([]ctgauss.EngineStats, len(w.pools))
	bitsBefore := make([]uint64, len(w.pools))
	callers := make([]poolCaller, w.procs)
	var wg sync.WaitGroup
	// stretch is written before ready closes and read after, so the close
	// orders the two.
	var stretch [2]time.Time // measured stretch: start, deadline
	ready := make(chan struct{})
	var warmWG sync.WaitGroup
	warmWG.Add(w.procs)
	meter := startRSSMeter()
	for c := range callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.caller(ctx, c, warm, ready, &stretch, &warmWG, &callers[c], tr)
		}(c)
	}
	warmWG.Wait()
	rss := meter.mean()
	for i, p := range w.pools {
		before[i], bitsBefore[i] = p.EngineStats(), p.BitsUsed()
	}
	rt0, steal0 := readRuntime(), stealSeconds()
	startMeasure := time.Now()
	stretch = [2]time.Time{startMeasure, startMeasure.Add(d)}
	close(ready)
	wg.Wait()
	endMeasure := time.Now()

	ph := &phase{Workload: "pool-stream", Traced: tr != nil, Elapsed: endMeasure.Sub(startMeasure), Stretch: d,
		Runtime: readRuntime().sub(rt0), RSSMeanMB: rss, StealS: stealSeconds() - steal0, Figures: map[string]figure{}, Counters: map[string]any{}}
	drawn := make([][]int, len(w.pools))
	outOfRange := 0
	for _, c := range callers {
		ph.Attempted += c.tried
		ph.Failed += c.failed
		ph.Samples += c.samples
		ph.ops = append(ph.ops, c.ops...)
		for i := range w.pools {
			drawn[i] = append(drawn[i], c.drawn[i]...)
		}
		outOfRange += c.outOfRange
	}
	ph.Checks = append(ph.Checks, check{Name: "support", Pass: outOfRange == 0,
		Detail: fmt.Sprintf("%d samples beyond ⌈13σ⌉", outOfRange)})
	for i, p := range w.pools {
		sigma, _ := strconv.ParseFloat(poolSigmas[i], 64)
		ph.gate(gof("gof.sigma"+poolSigmas[i], []drawSet{{sigma: sigma, samples: drawn[i]}}))
		es := p.EngineStats()
		hits, misses := es.PrefetchHits-before[i].PrefetchHits, es.PrefetchMisses-before[i].PrefetchMisses
		served := es.SamplesServed - before[i].SamplesServed
		ph.Counters["engine.sigma"+poolSigmas[i]] = engineDelta{
			PrefetchHitRatio: newRatio(hits, hits+misses),
			SamplesServed:    served,
			RefillsStarted:   es.RefillsStarted - before[i].RefillsStarted,
			BitsPerSample:    newRatio(p.BitsUsed()-bitsBefore[i], served),
			BitsPerSampleS7:  float64(w.stats[i].BitsPerBatch) / 64,
			Width:            w.stats[i].BatchesPerRefill,
		}
	}
	lat := summarize(ph.latencies(), "us", 1e3)
	ph.Figures["samples_per_s"] = figure{float64(ph.Samples) / ph.Elapsed.Seconds(), "1/s", int(ph.Samples)}
	ph.Figures["take_p50_us"] = figure{lat.P50, "us", lat.Count}
	ph.Figures["take_p99_us"] = figure{lat.P99, "us", lat.Count}
	ph.Counters["take_latency"] = lat
	return ph, nil
}

// caller is one closed-loop caller: warm (collecting the subsample),
// wait for the common start, then Take until the measured deadline.
func (w *poolStream) caller(ctx context.Context, c int, warm time.Duration, ready <-chan struct{}, stretch *[2]time.Time, warmWG *sync.WaitGroup, out *poolCaller, tr *tracer) {
	rng := newRand(w.seed, fmt.Sprintf("pool-stream/caller%d/run%d", c, w.runs))
	buf := make([]int, poolMaxTake)
	want := poolSubsample / w.procs
	out.drawn = make([][]int, len(w.pools))
	for i := range out.drawn {
		out.drawn[i] = make([]int, 0, want)
	}
	take := func(measured bool) error {
		i := rng.IntN(len(w.pools))
		n := logUniform(rng, poolMinTake, poolMaxTake)
		t0 := time.Now()
		err := w.pools[i].Take(ctx, buf[:n])
		t1 := time.Now()
		if !measured {
			if err == nil && len(out.drawn[i]) < want {
				out.drawn[i] = append(out.drawn[i], buf[:min(n, want-len(out.drawn[i]))]...)
			}
			return err
		}
		out.tried++
		if err != nil {
			out.failed++
			return err
		}
		tr.record("pool.take", uint64(c)<<40|uint64(out.tried), 0, t0, t1, n)
		ns := float64(t1.Sub(t0).Nanoseconds())
		out.ops = append(out.ops, opRec{At: t1.Sub(stretch[0]).Nanoseconds(), Lat: ns, N: n})
		out.samples += int64(n)
		if k := outside(buf[:n], 0, float64(w.stats[i].Support)); k > 0 {
			out.outOfRange += k
			out.failed++
		}
		return nil
	}
	warmEnd := time.Now().Add(warm)
	for time.Now().Before(warmEnd) {
		if err := take(false); err != nil {
			break
		}
	}
	warmWG.Done()
	<-ready
	for time.Now().Before(stretch[1]) {
		if take(true) != nil {
			return
		}
	}
}
