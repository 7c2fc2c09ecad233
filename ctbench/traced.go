package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ctgauss/falcon"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced run's metrics.  Every workload reports each
// one for its own operation: a Pool.Take (throughput in samples/s), an
// HTTP request timed from its due time (throughput in completed requests
// per CPU second of the process, since the open loop's wall rate is set
// by its schedule), or a SignerPool.Sign (throughput in signatures/s).  The
// timing bounds are wide because runs of one seed on a shared 2-vCPU host
// differ by 15% or more while the host steals CPU; mean memory moved by
// under 5%.  Tail and mean
// latency are printed with every run but carry no bound: under steal
// they moved by up to 1.9× (p99) and 0.6× (mean) of their median across
// ten runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mean_mb", "MB", "lower", 0.15},
	{"throughput_per_s", "1/s", "higher", 0.2},
	{"latency_p50_us", "us", "lower", 0.25},
}

// serverStages are the daemon stage means reported per endpoint; stages
// an endpoint never enters (the samples path never combines, signing
// never waits on a refill engine) are left out.
var serverStages = map[string][]string{
	"samples":   {"queue_wait", "decode", "coalesce", "engine_wait", "encode", "other"},
	"arbitrary": {"queue_wait", "decode", "coalesce", "engine_wait", "combine", "encode", "other"},
	"sign":      {"queue_wait", "decode", "coalesce", "encode", "other"},
}

// perLayer are the traced run's metrics, in output order.
func perLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{Name: name, Unit: unit, Better: better}) }
	add("prng.chacha20.ns_per_word", "ns", "lower")
	for _, s := range poolSigmas {
		add("prng.bits_per_sample.sigma"+s, "bits", "lower")
	}
	for _, s := range poolSigmas {
		add("sampler.refill_ns_per_sample.sigma"+s, "ns", "lower")
		add("bitslice.eval_ns_per_sample.sigma"+s, "ns", "lower")
		add("sampler.stage_ns_per_sample.sigma"+s, "ns", "lower")
	}
	add("bitslice.unpack_ns_per_sample", "ns", "lower")
	add("engine.prefetch_hit_ratio", "ratio", "higher")
	add("engine.take_self_ns_per_sample", "ns", "lower")
	add("convolve.ns_per_sample", "ns", "lower")
	add("convolve.accept_ratio", "ratio", "higher")
	add("convolve.bits_per_sample", "bits", "lower")
	for _, ep := range endpointNames {
		for _, st := range serverStages[ep] {
			add("server."+ep+"."+st+"_us", "us", "lower")
		}
	}
	add("server.encode_ns_per_sample", "ns", "lower")
	add("server.client_gap_us", "us", "lower")
	add("falcon.sign_us", "us", "lower")
	add("falcon.pool_wait_us", "us", "lower")
	add("falcon.attempts_per_sign", "count", "lower")
	add("falcon.base_ns_per_sample", "ns", "lower")
	for _, s := range poolSigmas {
		add("core.build_ms.sigma"+s, "ms", "lower")
	}
	add("falcon.keygen_ms", "ms", "lower")
	add("runtime.alloc_bytes_per_op", "B", "lower")
	add("runtime.gc_cycles_per_s", "1/s", "lower")
	add("obs.trace_overhead_pct", "%", "lower")
	add("recon.pool.refill_ns_per_sample", "ns", "lower")
	add("recon.pool.end_to_end_ns_per_sample", "ns", "lower")
	add("recon.pool.refill_share", "ratio", "higher")
	add("recon.pool.unexplained_ns_per_sample", "ns", "lower")
	add("recon.daemon.stage_share", "ratio", "higher")
	return m
}

// runPhase sets one workload up, runs it for d and tears it down.
func runPhase(ctx context.Context, o options, workload string, sk *falcon.PrivateKey, d time.Duration, tr *tracer) (*phase, error) {
	in, err := setup(o, workload, tr != nil, sk)
	if err != nil {
		return nil, err
	}
	defer in.close()
	ph, err := in.run(ctx, warmFor(d), d, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	printPhase(ph)
	return ph, nil
}

// runTraced produces every per-layer metric.  The run's workload goes
// twice, untraced then traced (their difference is the tracing
// overhead); the other two workloads run briefly traced, so every layer
// has spans whichever workload is named; then the micro replays run.
func runTraced(ctx context.Context, o options, rec runRecord) (*result, error) {
	tr := newTracer()
	t0 := time.Now()
	sk, err := falcon.Keygen(falconN, falconKeySeed)
	if err != nil {
		return nil, fmt.Errorf("falcon keygen: %w", err)
	}
	t1 := time.Now()
	tr.record("setup.falcon.keygen", 0, 0, t0, t1, 1)
	keygenMs := float64(t1.Sub(t0).Nanoseconds()) / 1e6

	total := seconds(o.seconds)
	untraced, err := runPhase(ctx, o, o.workload, sk, total*3/10, nil)
	if err != nil {
		return nil, err
	}
	traced := map[string]*phase{}
	phases := []*phase{untraced}
	for _, w := range workloads {
		d := total / 10
		if w == o.workload {
			d = total * 3 / 10
		}
		ph, err := runPhase(ctx, o, w, sk, d, tr)
		if err != nil {
			return nil, err
		}
		traced[w] = ph
		phases = append(phases, ph)
	}
	lr, err := runLayerReplays(o.seed, sk, tr)
	if err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	figs, recon := layerFigures(o, untraced, traced, lr, self, keygenMs)

	fmt.Println("reconciliation:")
	for _, line := range recon {
		fmt.Println("  " + line)
	}
	printFigures("per-layer", figs)
	path := spanFile(o)
	if err := tr.writeSpans(path, self); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d kept, %d dropped, written to %s (self times in %s)\n", len(tr.spans), tr.dropped, path, selfFile(path))
	detail := map[string]any{
		"record": rec, "phases": phases, "layer_replays": lr, "self_times": self,
		"reconciliation": recon, "per_layer": figs, "spans_file": path,
	}
	return finish(detail, phases, perLayer(), figs)
}

// layerFigures derives the per-layer metrics and the reconciliation
// lines from the phases and replays.
func layerFigures(o options, untraced *phase, traced map[string]*phase, lr *layerReplays, self map[string]layerTime, keygenMs float64) (map[string]figure, []string) {
	figs := map[string]figure{}
	put := func(name string, v float64, unit string, n int) { figs[name] = figure{v, unit, n} }
	var recon []string

	put("prng.chacha20.ns_per_word", lr.PRNGNsPerWord, "ns", self["replay.prng.fillwords.sigma"+interpSigma].Count)
	put("bitslice.unpack_ns_per_sample", lr.UnpackNs, "ns", self["replay.bitslice.unpack"].Count)

	// Sampling core, weighted by the σ mix pool-stream served.
	pool := traced["pool-stream"]
	var hits, draws, served uint64
	// σ-weighted replay costs: refill and its measured parts (the stage
	// part is their residual).
	var refillW, prngW, evalW, unpackW float64
	for _, sl := range lr.Sigmas {
		ed := pool.Counters["engine.sigma"+sl.Sigma].(engineDelta)
		put("prng.bits_per_sample.sigma"+sl.Sigma, ed.BitsPerSample.Value, "bits", int(ed.BitsPerSample.Base))
		put("sampler.refill_ns_per_sample.sigma"+sl.Sigma, sl.RefillNs, "ns", self["replay.sampler.refill.sigma"+sl.Sigma].Count)
		put("bitslice.eval_ns_per_sample.sigma"+sl.Sigma, sl.EvalNs, "ns", self["replay.bitslice.eval.sigma"+sl.Sigma].Count)
		put("sampler.stage_ns_per_sample.sigma"+sl.Sigma, sl.StageNs, "ns", self["replay.sampler.refill.sigma"+sl.Sigma].Count)
		put("core.build_ms.sigma"+sl.Sigma, sl.BuildMs, "ms", 1)
		hits += ed.PrefetchHitRatio.Num
		draws += ed.PrefetchHitRatio.Base
		served += ed.SamplesServed
		w := float64(ed.SamplesServed)
		refillW += w * sl.RefillNs
		prngW += w * sl.PRNGNs
		evalW += w * sl.EvalNs
		unpackW += w * sl.UnpackNs
	}
	refillW /= float64(served)
	prngW /= float64(served)
	evalW /= float64(served)
	unpackW /= float64(served)
	take := self["pool.take"]
	callerNs := float64(take.SelfNs) / float64(take.Count)
	put("engine.prefetch_hit_ratio", newRatio(hits, draws).Value, "ratio", int(draws))
	put("engine.take_self_ns_per_sample", callerNs-refillW, "ns", take.Count)

	// Reconciliation: the replayed refill cost (timed in isolation) against
	// the CPU time per sample end to end, GOMAXPROCS × wall / samples, of
	// pool-stream untraced (traced when another workload is named).  The
	// remainder is what the replays do not cover: engine handoff, Take's
	// own work, scheduling and cache effects of running concurrently.
	procs := runtime.GOMAXPROCS(0)
	e2eSrc, how := pool, "traced"
	if o.workload == "pool-stream" {
		e2eSrc, how = untraced, "untraced"
	}
	e2e := float64(procs) * 1e9 * e2eSrc.Elapsed.Seconds() / float64(e2eSrc.Samples)
	put("recon.pool.refill_ns_per_sample", refillW, "ns", int(served))
	put("recon.pool.end_to_end_ns_per_sample", e2e, "ns", int(e2eSrc.Samples))
	put("recon.pool.refill_share", refillW/e2e, "ratio", int(e2eSrc.Samples))
	put("recon.pool.unexplained_ns_per_sample", e2e-refillW, "ns", int(e2eSrc.Samples))
	recon = append(recon,
		fmt.Sprintf("pool-stream: replayed refill %.1f ns/sample (prng %.1f + eval %.1f + unpack %.1f measured, stage %.1f residual; σ-weighted by samples served) vs %.1f ns/sample end to end (%d CPUs × wall / samples, %s): refill share %.3f, unexplained %.1f ns/sample",
			refillW, prngW, evalW, unpackW, refillW-prngW-evalW-unpackW, e2e, procs, how, refillW/e2e, e2e-refillW))

	put("convolve.ns_per_sample", lr.ConvolveNs, "ns", int(lr.ConvolveBits.Base))
	put("convolve.accept_ratio", lr.ConvolveAccept.Value, "ratio", int(lr.ConvolveAccept.Base))
	put("convolve.bits_per_sample", lr.ConvolveBits.Value, "bits", int(lr.ConvolveBits.Base))

	// Server stages from the traced daemon-open trailers.
	stages := traced["daemon-open"].Counters["stages"].(map[string]map[string]float64)
	var encNs, encSamples, gapSum, totalSum, rtSum, reqs float64
	for _, ep := range endpointNames {
		m := stages[ep]
		for _, st := range serverStages[ep] {
			put("server."+ep+"."+st+"_us", m[st], "us", int(m["requests"]))
		}
		if ep != "sign" {
			encNs += m["encode"] * m["requests"] * 1e3
			encSamples += m["samples"]
		}
		gapSum += m["client_gap"] * m["requests"]
		totalSum += m["total"] * m["requests"]
		rtSum += m["client_rt"] * m["requests"]
		reqs += m["requests"]
	}
	put("server.encode_ns_per_sample", encNs/encSamples, "ns", int(encSamples))
	put("server.client_gap_us", gapSum/reqs, "us", int(reqs))
	put("recon.daemon.stage_share", totalSum/rtSum, "ratio", int(reqs))
	recon = append(recon, fmt.Sprintf("daemon-open: server stages sum (trailer total) %.1f us vs client round trip %.1f us per request: share %.3f, client gap %.1f us",
		totalSum/reqs, rtSum/reqs, totalSum/rtSum, gapSum/reqs))

	fal := traced["falcon-sign"]
	poolSignUs := fal.Counters["sign_latency"].(summary).P50
	put("falcon.sign_us", lr.SignUs, "us", lr.Signs)
	put("falcon.pool_wait_us", poolSignUs-lr.SignUs, "us", len(fal.ops))
	att := fal.Counters["attempts_per_sign"].(ratio)
	put("falcon.attempts_per_sign", att.Value, "count", int(att.Base))
	put("falcon.base_ns_per_sample", lr.BaseNs, "ns", self["replay.falcon.base"].Count)
	put("falcon.keygen_ms", keygenMs, "ms", 1)

	put("runtime.alloc_bytes_per_op", float64(untraced.Runtime.AllocBytes)/float64(untraced.Attempted), "B", untraced.Attempted)
	put("runtime.gc_cycles_per_s", float64(untraced.Runtime.GCCycles)/untraced.Elapsed.Seconds(), "1/s", int(untraced.Runtime.GCCycles))

	tp := traced[o.workload]
	var overhead float64
	if o.workload == "daemon-open" {
		u, t := summarize(untraced.latencies(), "us", 1e3).P50, summarize(tp.latencies(), "us", 1e3).P50
		overhead = (t - u) / u * 100
		recon = append(recon, fmt.Sprintf("tracing overhead: daemon-open p50 %.1f us untraced vs %.1f us traced: %+.2f%%", u, t, overhead))
	} else {
		u, t := throughput(untraced), throughput(tp)
		overhead = (u - t) / u * 100
		recon = append(recon, fmt.Sprintf("tracing overhead: %s throughput %.6g/s untraced vs %.6g/s traced: %+.2f%%", o.workload, u, t, overhead))
	}
	put("obs.trace_overhead_pct", overhead, "%", untraced.Attempted+tp.Attempted)
	return figs, recon
}
