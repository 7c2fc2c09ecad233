package server

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctgauss"
	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/obs"
	"ctgauss/internal/tier"
)

// latencyQuantile returns h's q-quantile in seconds as a log2-bucket
// upper bound (at most a factor-2 overestimate — the right
// precision/cost point for serving telemetry; exact per-request
// latencies live in the load generator's report), or 0 with no
// observations.
func latencyQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := max(uint64(q*float64(h.Count)), 1)
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= target {
			return float64(obs.BucketUpperNs(i)) / 1e9
		}
	}
	return float64(obs.BucketUpperNs(obs.NumBuckets-1)) / 1e9
}

// endpointMetrics counts one endpoint's traffic.
type endpointMetrics struct {
	name      string
	requests  atomic.Uint64 // requests admitted past the drain gate AND the queue
	errors    atomic.Uint64 // responses with status ≥ 400 (excluding 429 and 499)
	rejected  atomic.Uint64 // 429 backpressure rejections
	refused   atomic.Uint64 // 503 drain-gate refusals
	cancelled atomic.Uint64 // requests abandoned by cancellation or deadline
	inflight  atomic.Int64
	lat       obs.Histogram
}

// metrics is the server-wide counter set exported at /metrics.
type metrics struct {
	endpoints []*endpointMetrics // fixed at construction; scrape iterates
	samples   atomic.Uint64      // Gaussian samples served
	signs     atomic.Uint64      // signatures produced
	verifies  atomic.Uint64      // verification requests evaluated

	// arbSamples counts samples served by the convolution layer only; a
	// promoted key's compiled-tier samples are not in it.
	arbSamples atomic.Uint64

	// Per-tier ledgers of the free-form serving path: every /v1/arbitrary
	// and free-form /v1/samples sample lands in exactly one of the two.
	// The nanos ledgers hold the time spent inside the sampler call
	// itself (pool.Take or arb.NextBatch) — transport excluded — so
	// Δseconds/Δsamples is the serving-path sampling cost a promotion
	// changes, comparable across tiers and with BENCH_PR4's numbers.
	tierCompiledSamples  atomic.Uint64
	tierConvolvedSamples atomic.Uint64
	tierCompiledNanos    atomic.Uint64
	tierConvolvedNanos   atomic.Uint64

	// sigmaSamples counts free-form samples per σ, both tiers: the rate
	// signal the tier controller promotes on, exported per σ.  It is
	// bounded by arbSigmaTrackLimit; sigmaOverflow records the cap
	// being hit, so the series stays honest past it.
	sigmaMu       sync.Mutex
	sigmaSamples  map[float64]uint64
	sigmaOverflow bool
}

// arbSigmaTrackLimit bounds the per-σ counter map (an adversarial
// client must not grow server memory without bound).
const arbSigmaTrackLimit = 4096

func newMetrics(endpointNames []string) *metrics {
	m := &metrics{sigmaSamples: make(map[float64]uint64)}
	for _, n := range endpointNames {
		m.endpoints = append(m.endpoints, &endpointMetrics{name: n})
	}
	return m
}

func (m *metrics) endpoint(name string) *endpointMetrics {
	for _, e := range m.endpoints {
		if e.name == name {
			return e
		}
	}
	return nil
}

// recordSigma advances σ's free-form sample counter (bounded map).
func (m *metrics) recordSigma(sigma float64, n uint64) {
	m.sigmaMu.Lock()
	if _, ok := m.sigmaSamples[sigma]; ok || len(m.sigmaSamples) < arbSigmaTrackLimit {
		m.sigmaSamples[sigma] += n
	} else {
		m.sigmaOverflow = true
	}
	m.sigmaMu.Unlock()
}

// index returns the endpoint's position in the registration order —
// the same order the obs.Observer was built with.
func (m *metrics) index(name string) int {
	for i, e := range m.endpoints {
		if e.name == name {
			return i
		}
	}
	return -1
}

// promFamily collects one metric family's samples before emission.
// Rows keep insertion order (callers insert from sorted inputs);
// families themselves are emitted sorted by name.
type promFamily struct {
	name, kind, help string
	rows             []promRow
}

// promRow is one sample line; name differs from the family name only
// for histogram _bucket/_sum/_count samples.
type promRow struct {
	name   string
	labels string // rendered label block including braces, or ""
	value  string
}

func (f *promFamily) row(labels, value string) {
	f.rows = append(f.rows, promRow{name: f.name, labels: labels, value: value})
}

func (f *promFamily) rowf(labels, format string, args ...any) {
	f.row(labels, fmt.Sprintf(format, args...))
}

// suffixRow adds a histogram sub-sample (family name + suffix).
func (f *promFamily) suffixRow(suffix, labels, value string) {
	f.rows = append(f.rows, promRow{name: f.name + suffix, labels: labels, value: value})
}

// promSet accumulates families and writes them sorted by name — the
// deterministic-scrape guarantee: two scrapes of the same server state
// render byte-identically, and family order never depends on code
// order or map iteration.
type promSet struct {
	byName map[string]*promFamily
}

func newPromSet() *promSet { return &promSet{byName: make(map[string]*promFamily)} }

// family registers (or revisits) a family.  Revisiting with a
// different kind is a programming error caught loudly: duplicate
// # TYPE lines are exactly what the metrics lint rejects.
func (ps *promSet) family(name, kind, help string) *promFamily {
	if f, ok := ps.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: family %s redeclared as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &promFamily{name: name, kind: kind, help: help}
	ps.byName[name] = f
	return f
}

func (ps *promSet) writeTo(w io.Writer) {
	names := make([]string, 0, len(ps.byName))
	for n := range ps.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := ps.byName[n]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, r := range f.rows {
			fmt.Fprintf(w, "%s%s %s\n", r.name, r.labels, r.value)
		}
	}
}

// stageBucketIdx selects which log2 bucket boundaries the stage
// histograms expose as Prometheus le bounds: every other power of two
// from 256ns (2^8) to ~17s (2^34).  The in-memory resolution stays
// full; adjacent buckets merge into the coarser cumulative counts.
var stageBucketIdx = []int{8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34}

// writePrometheus renders the server's counter set, pool and layer
// ledgers in Prometheus text exposition format, families sorted by name.
func (s *Server) writePrometheus(w io.Writer) {
	m := s.m
	ps := newPromSet()
	epLabel := func(name string) string { return fmt.Sprintf("{endpoint=%q}", name) }

	f := ps.family("ctgaussd_requests_total", "counter", "Requests admitted per endpoint (past the drain gate and the admission queue; 429 rejections are counted separately).")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.requests.Load())
	}
	f = ps.family("ctgaussd_errors_total", "counter", "Responses with status >= 400, excluding backpressure rejections.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.errors.Load())
	}
	f = ps.family("ctgaussd_rejected_total", "counter", "Requests rejected with 429 (admission queue full).")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.rejected.Load())
	}
	f = ps.family("ctgaussd_drain_refused_total", "counter", "Requests refused with 503 at the drain gate during shutdown.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.refused.Load())
	}
	f = ps.family("ctgaussd_requests_cancelled_total", "counter", "Requests abandoned by client cancellation or the per-request deadline.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.cancelled.Load())
	}
	f = ps.family("ctgaussd_inflight", "gauge", "Requests currently being served per endpoint.")
	for _, e := range m.endpoints {
		f.rowf(epLabel(e.name), "%d", e.inflight.Load())
	}

	f = ps.family("ctgaussd_latency_seconds", "gauge", "Request latency quantiles per endpoint (log2-bucket upper bounds).")
	for _, e := range m.endpoints {
		h := e.lat.Snapshot()
		for _, q := range []float64{0.5, 0.99} {
			f.rowf(fmt.Sprintf("{endpoint=%q,quantile=%q}", e.name, fmt.Sprintf("%g", q)), "%g", latencyQuantile(h, q))
		}
		if h.Count > 0 {
			mean := float64(h.SumNs) / float64(h.Count) / 1e9
			f.rowf(fmt.Sprintf("{endpoint=%q,quantile=\"mean\"}", e.name), "%g", mean)
		}
	}

	ps.family("ctgaussd_samples_served_total", "counter", "Gaussian samples returned to clients.").rowf("", "%d", m.samples.Load())
	ps.family("ctgaussd_signatures_total", "counter", "Falcon signatures produced.").rowf("", "%d", m.signs.Load())
	ps.family("ctgaussd_verifies_total", "counter", "Falcon verifications evaluated.").rowf("", "%d", m.verifies.Load())

	// Per-σ pool ledgers, one engine snapshot per σ.  The arbitrary
	// layer's base engines add their fault-isolation rows under
	// sigma="arbitrary", so one series covers every engine in the
	// process.
	sigmas := slices.Sorted(maps.Keys(s.pools))
	es := make([]ctgauss.EngineStats, len(sigmas))
	for i, sigma := range sigmas {
		es[i] = s.pools[sigma].EngineStats()
	}
	sigLabel := func(sigma string) string { return fmt.Sprintf("{sigma=%q}", sigma) }
	poolFamily := func(name, kind, help string, v func(i int) any) *promFamily {
		f := ps.family(name, kind, help)
		for i, sigma := range sigmas {
			f.rowf(sigLabel(sigma), "%d", v(i))
		}
		return f
	}
	// One "batch" is the pool's native 64-sample granularity; the engine
	// ledger counts samples exactly, so the batch counter advances once
	// per 64 consumed — and refills started is its ceiling over
	// batches-per-refill, as the coalescing test pins.
	poolFamily("ctgaussd_batches_total", "counter", "64-sample batches consumed from the pool's engine per sigma (served samples / 64).",
		func(i int) any { return es[i].SamplesServed / 64 })
	poolFamily("ctgaussd_refills_total", "counter", "Circuit evaluations whose output entered the served stream per sigma (prefetch lookahead counts on first consumption; see _refills_produced_total).",
		func(i int) any { return es[i].RefillsStarted })
	poolFamily("ctgaussd_pool_samples_total", "counter", "Samples consumed from the pool's engine per sigma (exactly what clients were served).",
		func(i int) any { return es[i].SamplesServed })
	poolFamily("ctgaussd_batches_per_refill", "gauge", "Evaluation width of the pool's engine (batches per refill).",
		func(i int) any { return s.pools[sigmas[i]].Stats().BatchesPerRefill })
	poolFamily("ctgaussd_pool_shards", "gauge", "Shard count of the per-sigma sampling pool.",
		func(i int) any { return es[i].Shards })
	poolFamily("ctgaussd_prefetch_depth", "gauge", "Configured refill lookahead per shard (0 = synchronous refill).",
		func(i int) any { return es[i].Prefetch })
	poolFamily("ctgaussd_refills_produced_total", "counter", "Circuit evaluations completed by the refill producers, including lookahead not yet consumed (>= ctgaussd_refills_total).",
		func(i int) any { return es[i].RefillsProduced })
	poolFamily("ctgaussd_prefetch_hits_total", "counter", "Draws served without waiting for a refill (the engine ring held data).",
		func(i int) any { return es[i].PrefetchHits })
	poolFamily("ctgaussd_prefetch_misses_total", "counter", "Draws that waited on a producer (async) or evaluated inline (sync).",
		func(i int) any { return es[i].PrefetchMisses })

	var restarts, discarded uint64
	var poisoned int
	if s.arb != nil {
		for _, h := range s.arb.Health() {
			restarts += h.Restarts
			discarded += h.DiscardedRefills
			if h.Poisoned {
				poisoned++
			}
		}
	}
	arbRow := func(f *promFamily, v any) {
		if s.arb != nil {
			f.rowf(sigLabel("arbitrary"), "%d", v)
		}
	}
	arbRow(poolFamily("ctgaussd_engine_producer_restarts_total", "counter", "Refill panics recovered per pool (the producer restarted after backoff).",
		func(i int) any { return es[i].ProducerRestarts }), restarts)
	arbRow(poolFamily("ctgaussd_engine_refills_discarded_total", "counter", "Refills abandoned by a panicking fill per pool (never served).",
		func(i int) any { return es[i].RefillsDiscarded }), discarded)
	arbRow(poolFamily("ctgaussd_engine_shards_poisoned", "gauge", "Shards currently poisoned per pool (producer restarting or dead; draws fail over meanwhile).",
		func(i int) any { return es[i].ShardsPoisoned }), poisoned)

	// Ring occupancy: how far ahead each shard's producer is right now.
	// The arbitrary layer's base engines merge (sum) across members
	// under sigma="arbitrary".
	fb := ps.family("ctgaussd_engine_ring_buffered", "gauge", "Completed refills buffered ahead of demand per pool shard (0 under sustained load = consumers at refill speed).")
	ft := ps.family("ctgaussd_engine_ring_target", "gauge", "The refill producer's current adaptive lookahead target per pool shard.")
	ringRows := func(label string, rings []ctgauss.RingStat) {
		for i, r := range rings {
			l := fmt.Sprintf("{sigma=%q,shard=\"%d\"}", label, i)
			fb.rowf(l, "%d", r.Buffered)
			ft.rowf(l, "%d", r.Target)
		}
	}
	for _, sigma := range sigmas {
		ringRows(sigma, s.pools[sigma].RingStats())
	}
	if s.arb != nil {
		ringRows("arbitrary", s.arb.RingStats())
	}

	if s.arb != nil {
		st := s.arb.Stats()
		m.sigmaMu.Lock()
		perSigma, overflowed := maps.Clone(m.sigmaSamples), m.sigmaOverflow
		m.sigmaMu.Unlock()
		overflow := 0
		if overflowed {
			overflow = 1
		}
		ps.family("ctgaussd_arbitrary_samples_total", "counter", "Samples served by the free-form (sigma, mu) convolution layer.").rowf("", "%d", m.arbSamples.Load())
		ps.family("ctgaussd_arbitrary_trials_total", "counter", "Combine/round trials evaluated by the convolution layer.").rowf("", "%d", st.Trials)
		ps.family("ctgaussd_arbitrary_accepted_total", "counter", "Trials accepted by the randomized-rounding step.").rowf("", "%d", st.Accepted)
		ps.family("ctgaussd_arbitrary_sigmas", "gauge", "Distinct sigma values served since startup (capped tracking; see _sigmas_overflow).").rowf("", "%d", len(perSigma))
		ps.family("ctgaussd_arbitrary_sigmas_overflow", "gauge", "Whether distinct-sigma tracking hit its cap (the gauge is then a lower bound).").rowf("", "%d", overflow)
		ps.family("ctgaussd_arbitrary_plans", "gauge", "Distinct convolution plans compiled (one per requested sigma).").rowf("", "%d", st.Plans)
		ps.family("ctgaussd_arbitrary_shards", "gauge", "Shard count of the arbitrary sampler.").rowf("", "%d", st.Shards)
		f = ps.family("ctgaussd_arbitrary_sigma_samples_total", "counter", "Samples served per free-form sigma, both tiers (capped tracking; see _sigmas_overflow).")
		for _, sigma := range slices.Sorted(maps.Keys(perSigma)) {
			f.rowf(sigLabel(tier.SigmaString(sigma)), "%d", perSigma[sigma])
		}
	}

	if s.tier != nil {
		tst := s.tier.Stats()
		f = ps.family("ctgaussd_tier_samples_total", "counter", "Free-form samples served per tier (compiled = promoted pool, convolved = convolution fallback).")
		f.rowf("{tier=\"compiled\"}", "%d", m.tierCompiledSamples.Load())
		f.rowf("{tier=\"convolved\"}", "%d", m.tierConvolvedSamples.Load())
		f = ps.family("ctgaussd_tier_sample_seconds_total", "counter", "Time spent inside the sampler per tier (pool.Take / convolution draw; transport excluded — divide by _tier_samples_total for ns-per-sample).")
		f.rowf("{tier=\"compiled\"}", "%g", float64(m.tierCompiledNanos.Load())/1e9)
		f.rowf("{tier=\"convolved\"}", "%g", float64(m.tierConvolvedNanos.Load())/1e9)
		ps.family("ctgaussd_tier_promotions_total", "counter", "Hot keys promoted onto compiled pools (build completed and installed).").rowf("", "%d", tst.Promotions)
		ps.family("ctgaussd_tier_demotions_total", "counter", "Compiled keys demoted back to the convolved tier (drain started).").rowf("", "%d", tst.Demotions)
		ps.family("ctgaussd_tier_builds_failed_total", "counter", "Promotion builds that errored or panicked (key stayed convolved).").rowf("", "%d", tst.BuildsFailed)
		ps.family("ctgaussd_tier_builds_deferred_total", "counter", "Promotion ticks skipped while the base set was degraded.").rowf("", "%d", tst.BuildsDeferred)
		ps.family("ctgaussd_tier_pools", "gauge", "Compiled pools currently held by the tier controller (building + compiled + draining).").rowf("", "%d", tst.Pools)
		ps.family("ctgaussd_tier_pools_max", "gauge", "Configured compiled-pool budget.").rowf("", "%d", tst.MaxPools)
		f = ps.family("ctgaussd_tier_state", "gauge", "Tier state per tracked sigma (0=convolved, 1=building, 2=compiled, 3=draining).")
		for _, k := range s.tier.Snapshot() {
			f.rowf(sigLabel(tier.SigmaString(k.Sigma)), "%d", int32(k.State))
		}
	}

	// Per-stage request-time histograms (tracing enabled only): where a
	// request's wall time went, per endpoint.  Partition stages
	// (queue_wait, decode, route, coalesce, encode, other) sum to
	// total; engine_wait/eval/combine are sub-stages of coalesce.
	if stages := s.obs.Scrape(); len(stages) > 0 {
		f = ps.family("ctgaussd_stage_seconds", "histogram", "Per-stage request time by endpoint (partition stages sum to stage=\"total\"; engine_wait/eval/combine nest inside coalesce).")
		for _, sc := range stages {
			var cum uint64
			next := 0
			for _, bi := range stageBucketIdx {
				for ; next <= bi; next++ {
					cum += sc.Hist.Buckets[next]
				}
				le := float64(obs.BucketUpperNs(bi)) / 1e9
				f.suffixRow("_bucket",
					fmt.Sprintf("{stage=%q,endpoint=%q,le=%q}", sc.Stage, sc.Endpoint, fmt.Sprintf("%g", le)),
					fmt.Sprintf("%d", cum))
			}
			f.suffixRow("_bucket",
				fmt.Sprintf("{stage=%q,endpoint=%q,le=\"+Inf\"}", sc.Stage, sc.Endpoint),
				fmt.Sprintf("%d", sc.Hist.Count))
			f.suffixRow("_sum",
				fmt.Sprintf("{stage=%q,endpoint=%q}", sc.Stage, sc.Endpoint),
				fmt.Sprintf("%g", float64(sc.Hist.SumNs)/1e9))
			f.suffixRow("_count",
				fmt.Sprintf("{stage=%q,endpoint=%q}", sc.Stage, sc.Endpoint),
				fmt.Sprintf("%d", sc.Hist.Count))
		}
	}

	// Process-level telemetry: build identity, uptime, Go runtime.
	b := obs.Build()
	ps.family("ctgaussd_build_info", "gauge", "Build identity as labels (value is always 1).").
		rowf(fmt.Sprintf("{version=%q,go_version=%q,simd=%q}", b.Version, b.GoVersion, dispatch.Active().String()), "1")
	ps.family("ctgaussd_uptime_seconds", "gauge", "Seconds since the server started.").rowf("", "%g", time.Since(s.start).Seconds())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.family("ctgaussd_go_goroutines", "gauge", "Live goroutines in the process.").rowf("", "%d", runtime.NumGoroutine())
	ps.family("ctgaussd_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.").rowf("", "%d", ms.HeapAlloc)
	ps.family("ctgaussd_go_heap_objects", "gauge", "Number of allocated heap objects.").rowf("", "%d", ms.HeapObjects)
	ps.family("ctgaussd_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.").rowf("", "%g", float64(ms.PauseTotalNs)/1e9)
	ps.family("ctgaussd_go_gc_cycles_total", "counter", "Completed GC cycles.").rowf("", "%d", ms.NumGC)

	dr := 0
	if s.isDraining() {
		dr = 1
	}
	ps.family("ctgaussd_draining", "gauge", "Whether the server is draining (1) or accepting requests (0).").rowf("", "%d", dr)

	ps.writeTo(w)
}
