package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ctgauss/falcon"
	"ctgauss/internal/obs"
	"ctgauss/internal/server"
)

// daemonSigmas are the daemon's /v1/samples pools.
var daemonSigmas = []string{"2", "6.15543"}

// Endpoints of the daemon-open mix.
const (
	epSamples = iota
	epArbitrary
	epSign
	numEndpoints
)

var endpointNames = [numEndpoints]string{"samples", "arbitrary", "sign"}
var endpointPaths = [numEndpoints]string{"/v1/samples", "/v1/arbitrary", "/v1/falcon/sign"}

// Request mix: shares of the three endpoints, the σ split of
// /v1/samples, and the ranges of the arbitrary layer's inputs.
const (
	shareSamples    = 0.65
	shareArbitrary  = 0.30 // the remaining 5% sign
	shareSigma2     = 0.80
	arbMenuSize     = 64
	arbSigmaMin     = 1.2
	arbSigmaMax     = 64
	arbMaxCount     = 2048
	samplesMinCount = 64
	samplesMaxCount = 8192
)

// defaultRate is daemon-open's offered load in requests per second:
// about half the rate at which the backlog starts to grow (≈3.2k/s on a
// 2-vCPU x86-64 host; see README.md for the calibration).
const defaultRate = 1000

// request is one scheduled arrival: when it is due (from the start of
// the schedule), what it asks for, and its pre-encoded body.
type request struct {
	Due   time.Duration
	Ep    int
	Sigma float64
	Mu    float64
	Count int
	Msg   []byte
	Body  []byte
}

// arbMenu is the seeded menu of arbitrary-layer σ values, log-uniform
// over [arbSigmaMin, arbSigmaMax].
func arbMenu(seed uint64) []float64 {
	rng := newRand(seed, "daemon-open/sigma-menu")
	menu := make([]float64, arbMenuSize)
	for i := range menu {
		s := arbSigmaMin * math.Pow(arbSigmaMax/arbSigmaMin, rng.Float64())
		menu[i] = math.Round(s*1e4) / 1e4
	}
	return menu
}

// schedule is the open-loop arrival sequence: Poisson arrivals at rate
// per second over d, each request drawn from the mix.  It is a pure
// function of (seed, label, rate, d).
func schedule(seed uint64, label string, rate float64, d time.Duration) []request {
	rng := newRand(seed, "daemon-open/"+label)
	menu := arbMenu(seed)
	var reqs []request
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return reqs
		}
		r := request{Due: time.Duration(t * 1e9)}
		switch u := rng.Float64(); {
		case u < shareSamples:
			r.Ep = epSamples
			sigma := daemonSigmas[0]
			if rng.Float64() >= shareSigma2 {
				sigma = daemonSigmas[1]
			}
			r.Sigma, _ = strconv.ParseFloat(sigma, 64)
			r.Count = logUniform(rng, samplesMinCount, samplesMaxCount)
			r.Body = fmt.Appendf(nil, `{"count":%d,"sigma":%q}`, r.Count, sigma)
		case u < shareSamples+shareArbitrary:
			r.Ep = epArbitrary
			r.Sigma = menu[rng.IntN(len(menu))]
			r.Mu = math.Round(rng.Float64()*1e6) / 1e6
			r.Count = logUniform(rng, 1, arbMaxCount)
			r.Body = fmt.Appendf(nil, `{"count":%d,"sigma":%g,"mu":%g}`, r.Count, r.Sigma, r.Mu)
		default:
			r.Ep = epSign
			r.Msg = make([]byte, 32)
			for i := range r.Msg {
				r.Msg[i] = byte(rng.Uint32())
			}
			r.Body = fmt.Appendf(nil, `{"message":%q}`, base64.StdEncoding.EncodeToString(r.Msg))
		}
		reqs = append(reqs, r)
	}
}

// daemon is an in-process internal/server on a loopback listener, with
// the daemon's defaults: σ 2 and 6.15543 pools, arbitrary layer on,
// tier off, Falcon-512 bitsliced, tracing as asked.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	pk     *falcon.PublicKey
}

// startDaemon builds the server (generating the Falcon key unless sk is
// given) and returns once the listener answers /healthz.
func startDaemon(traced bool, sk *falcon.PrivateKey) (*daemon, error) {
	srv, err := server.New(server.Config{
		Sigmas:     daemonSigmas,
		FalconN:    falconN,
		FalconKey:  sk,
		FalconKind: falcon.BaseBitsliced,
		Trace:      traced,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err == nil {
		d.pk, err = d.publicKey()
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) publicKey() (*falcon.PublicKey, error) {
	resp, err := http.Get(d.base + "/v1/falcon/key")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var kr struct {
		PublicKey string `json:"public_key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		return nil, fmt.Errorf("falcon key: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(kr.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("falcon key: %w", err)
	}
	return falcon.DecodePublic(raw)
}

// close shuts the listener down, waits for Serve to return, then drains
// the server.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout only leaves idle connections to Close
	_ = d.hs.Close()
	<-d.served
	d.srv.Close()
	http.DefaultClient.CloseIdleConnections()
}

// scrape sums every series of the named counters on /metrics.
func (d *daemon) scrape(names ...string) (map[string]uint64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			rest, ok := strings.CutPrefix(line, n)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			f := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				out[n] += uint64(v)
			}
		}
	}
	return out, nil
}

var daemonCounters = []string{
	"ctgaussd_prefetch_hits_total", "ctgaussd_prefetch_misses_total",
	"ctgaussd_arbitrary_accepted_total", "ctgaussd_arbitrary_trials_total",
}

// outcome is one request's result as the client saw it.
type outcome struct {
	FromDue time.Duration // latency from the request's due time
	RT      time.Duration // round trip from the send
	Status  int           // HTTP status; 0 = transport error
	Err     string
	Stages  map[string]int64
}

// daemonOpen is the daemon-open workload.
type daemonOpen struct {
	seed  uint64
	procs int
	rate  float64
	d     *daemon
	runs  int
}

func newDaemonOpen(seed uint64, procs int, rate float64, traced bool, sk *falcon.PrivateKey) (*daemonOpen, error) {
	d, err := startDaemon(traced, sk)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	return &daemonOpen{seed: seed, procs: procs, rate: rate, d: d}, nil
}

func (w *daemonOpen) close() { w.d.close() }

// fire sends reqs on their schedule through procs workers, each with one
// keep-alive connection, and returns every outcome and how late the
// generator handed each request to a worker.
// With cpu set, the process's CPU time is sampled from the schedule's
// start until every response is in.
func (w *daemonOpen) fire(ctx context.Context, reqs []request, tr *tracer, collect *collector, cpu **cpuClock) ([]outcome, []float64) {
	outs := make([]outcome, len(reqs))
	lag := make([]float64, len(reqs))
	jobs := make(chan int, len(reqs)) // one slot per scheduled request: the dispatcher never blocks
	var wg sync.WaitGroup
	var base time.Time
	for c := 0; c < w.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
			for i := range jobs {
				outs[i] = w.send(ctx, client, base, i, &reqs[i], tr, collect)
			}
		}()
	}
	base = time.Now()
	if cpu != nil {
		*cpu = startCPUClock(base)
		defer (*cpu).close()
	}
	for i := range reqs {
		due := base.Add(reqs[i].Due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag[i] = float64(time.Since(due).Nanoseconds())
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outs, lag
}

// send issues one request, reads and checks the whole response.
func (w *daemonOpen) send(ctx context.Context, client *http.Client, base time.Time, i int, r *request, tr *tracer, collect *collector) outcome {
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.d.base+endpointPaths[r.Ep], bytes.NewReader(r.Body))
	if err != nil {
		return outcome{Err: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return outcome{FromDue: time.Since(base.Add(r.Due)), RT: time.Since(t0), Err: err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	o := outcome{FromDue: t1.Sub(base.Add(r.Due)), RT: t1.Sub(t0), Status: resp.StatusCode}
	if err != nil {
		o.Err = err.Error()
		return o
	}
	if tr != nil {
		o.Stages = obs.ParseStages(resp.Trailer.Get(obs.StagesHeader))
		tr.add(span{Name: "http." + endpointNames[r.Ep], Trace: uint64(i), Start: tr.since(t0), End: tr.since(t1), Count: r.Count, Stages: o.Stages})
	}
	if resp.StatusCode != http.StatusOK {
		o.Err = strings.TrimSpace(string(body))
		return o
	}
	if err := collect.check(r, body); err != nil {
		o.Err = err.Error()
	}
	return o
}

// collector checks response bodies and keeps the subsamples and
// signatures checked after the timed window.
type collector struct {
	mu     sync.Mutex
	pool   map[float64][]int // /v1/samples draws per σ
	bucket map[float64]int   // menu σ → its σ bucket
	arb    [][]drawSet       // /v1/arbitrary draws per σ bucket
	sigs   []signed
}

// The distribution gate's subsamples: the first daemonPoolSubsample
// draws of each /v1/samples σ, and for each of daemonArbBuckets buckets
// of neighbouring menu σ values, the first daemonArbSets responses (the
// reference is one bigfp PMF per response, so responses, not draws, set
// the gate's cost).
const (
	daemonPoolSubsample = 120_000
	daemonArbBuckets    = 8
	daemonArbSets       = 8
)

func newCollector(seed uint64) *collector {
	menu := arbMenu(seed)
	sort.Float64s(menu)
	c := &collector{pool: map[float64][]int{}, bucket: map[float64]int{}, arb: make([][]drawSet, daemonArbBuckets)}
	for i, s := range menu {
		c.bucket[s] = i * daemonArbBuckets / len(menu)
	}
	return c
}

// check validates one 200 response against its request: the count, the
// support bound ⌈13σ⌉ around μ, and for signatures the encoding (the
// signature itself is verified after the run).
func (c *collector) check(r *request, body []byte) error {
	if r.Ep == epSign {
		var sr struct {
			Signature string `json:"signature"`
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			return fmt.Errorf("sign response: %w", err)
		}
		raw, err := base64.StdEncoding.DecodeString(sr.Signature)
		if err != nil {
			return fmt.Errorf("sign response: %w", err)
		}
		sig, err := falcon.DecodeSignature(raw)
		if err != nil {
			return fmt.Errorf("sign response: %w", err)
		}
		c.mu.Lock()
		c.sigs = append(c.sigs, signed{r.Msg, sig})
		c.mu.Unlock()
		return nil
	}
	count, xs, err := parseSamples(body)
	if err != nil {
		return err
	}
	if count != r.Count || len(xs) != r.Count {
		return fmt.Errorf("asked %d samples, got count %d with %d values", r.Count, count, len(xs))
	}
	if k := outside(xs, r.Mu, math.Ceil(13*r.Sigma)+1); k > 0 {
		return fmt.Errorf("%d samples beyond the support bound", k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.Ep == epSamples {
		if have := len(c.pool[r.Sigma]); have < daemonPoolSubsample {
			c.pool[r.Sigma] = append(c.pool[r.Sigma], xs[:min(len(xs), daemonPoolSubsample-have)]...)
		}
	} else if b := c.bucket[r.Sigma]; len(c.arb[b]) < daemonArbSets {
		c.arb[b] = append(c.arb[b], drawSet{sigma: r.Sigma, mu: r.Mu, samples: xs})
	}
	return nil
}

// parseSamples reads "count" and the "samples" array of a samples or
// arbitrary response without a reflective decode, so checking an
// 8192-sample body stays cheap next to the request it checks.
func parseSamples(body []byte) (int, []int, error) {
	_, after, ok := bytes.Cut(body, []byte(`"count":`))
	if !ok {
		return 0, nil, errors.New("response has no count")
	}
	end := bytes.IndexAny(after, ",}")
	if end < 0 {
		return 0, nil, errors.New("malformed count")
	}
	count, err := strconv.Atoi(string(bytes.TrimSpace(after[:end])))
	if err != nil {
		return 0, nil, fmt.Errorf("count: %w", err)
	}
	_, arr, ok := bytes.Cut(body, []byte(`"samples":[`))
	if !ok {
		return 0, nil, errors.New("response has no samples")
	}
	xs := make([]int, 0, count)
	v, neg, digits := 0, false, 0
	for _, b := range arr {
		switch {
		case b >= '0' && b <= '9':
			v = v*10 + int(b-'0')
			digits++
		case b == '-' && digits == 0:
			neg = true
		case b == ',' || b == ']':
			if digits == 0 {
				if b == ']' && len(xs) == 0 {
					return count, xs, nil
				}
				return 0, nil, errors.New("malformed samples")
			}
			if neg {
				v = -v
			}
			xs = append(xs, v)
			if b == ']' {
				return count, xs, nil
			}
			v, neg, digits = 0, false, 0
		case b == ' ' || b == '\n':
		default:
			return 0, nil, fmt.Errorf("unexpected %q in samples", b)
		}
	}
	return 0, nil, errors.New("unterminated samples")
}

// run fires a warm-up schedule (checked, not timed), then the measured
// schedule of d, and reports per-endpoint latency and counts.
func (w *daemonOpen) run(ctx context.Context, warm, d time.Duration, tr *tracer) (*phase, error) {
	w.runs++
	collect := newCollector(w.seed)
	meter := startRSSMeter()
	warmOuts, _ := w.fire(ctx, schedule(w.seed, fmt.Sprintf("warm%d", w.runs), w.rate, warm), nil, collect, nil)
	rss := meter.mean()
	reqs := schedule(w.seed, fmt.Sprintf("run%d", w.runs), w.rate, d)
	c0, err := w.d.scrape(daemonCounters...)
	if err != nil {
		return nil, err
	}
	rt0, steal0 := readRuntime(), stealSeconds()
	start := time.Now()
	var cpu *cpuClock
	outs, lag := w.fire(ctx, reqs, tr, collect, &cpu)
	elapsed := time.Since(start)
	rt := readRuntime().sub(rt0)
	steal := stealSeconds() - steal0
	c1, err := w.d.scrape(daemonCounters...)
	if err != nil {
		return nil, err
	}
	ph := &phase{Workload: "daemon-open", Traced: tr != nil, Elapsed: elapsed, Stretch: d, Runtime: rt, RSSMeanMB: rss, StealS: steal,
		cpu: cpu, Figures: map[string]figure{}, Counters: map[string]any{}}
	byEndpoint := make([]dist, numEndpoints)

	type epCount struct{ Sent, Succeeded, Failed, Refused int }
	counts := make([]epCount, numEndpoints)
	var firstErr string
	warmFailed := 0
	for _, o := range warmOuts {
		if o.Status != http.StatusOK || o.Err != "" {
			warmFailed++
		}
	}
	for i, o := range outs {
		ep := reqs[i].Ep
		counts[ep].Sent++
		ph.Attempted++
		switch {
		case o.Status == http.StatusTooManyRequests:
			counts[ep].Refused++
			ph.Failed++
		case o.Status != http.StatusOK || o.Err != "":
			counts[ep].Failed++
			ph.Failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("%s: status %d: %s", endpointNames[ep], o.Status, o.Err)
			}
		default:
			counts[ep].Succeeded++
			ns := float64(o.FromDue.Nanoseconds())
			ph.ops = append(ph.ops, opRec{At: reqs[i].Due.Nanoseconds(), Lat: ns, N: reqs[i].Count})
			byEndpoint[ep] = append(byEndpoint[ep], ns)
			ph.Samples += int64(reqs[i].Count)
		}
	}
	ph.Checks = append(ph.Checks, check{Name: "responses", Pass: ph.Failed == 0 && warmFailed == 0,
		Detail: fmt.Sprintf("%d of %d measured and %d of %d warm-up requests failed or refused; first: %s",
			ph.Failed, len(outs), warmFailed, len(warmOuts), firstErr)})
	ph.Failed += warmFailed

	for _, sigma := range daemonSigmas {
		s, _ := strconv.ParseFloat(sigma, 64)
		ph.gate(gof("gof.samples.sigma"+sigma, []drawSet{{sigma: s, samples: collect.pool[s]}}))
	}
	for b, sets := range collect.arb {
		if len(sets) > 0 {
			ph.gate(gof(fmt.Sprintf("gof.arbitrary.bucket%d.sigma%g-%g", b, sets[0].sigma, sets[len(sets)-1].sigma), sets))
		}
	}
	bad := 0
	for _, sg := range collect.sigs {
		if w.d.pk.Verify(sg.msg, sg.sig) != nil {
			bad++
		}
	}
	ph.Failed += bad
	ph.Checks = append(ph.Checks, check{Name: "verify", Pass: bad == 0,
		Detail: fmt.Sprintf("%d of %d signatures fail verification", bad, len(collect.sigs))})

	all := summarize(ph.latencies(), "ms", 1e6)
	for ep, name := range endpointNames {
		s := summarize(byEndpoint[ep], "ms", 1e6)
		ph.Figures["http."+name+"_p50_ms"] = figure{s.P50, "ms", s.Count}
		ph.Counters["latency."+name] = s
		ph.Counters["requests."+name] = counts[ep]
	}
	ph.Figures["http.p99_ms"] = figure{all.P99, "ms", all.Count}
	ph.Figures["http.failed_ratio"] = figure{float64(ph.Failed) / float64(ph.Attempted), "ratio", ph.Attempted}
	ph.Counters["latency.all"] = all
	ph.Counters["generator_lag"] = summarize(lag, "us", 1e3)
	ph.Counters["offered_rate_per_s"] = w.rate
	ph.Counters["process_cpu_s"] = cpu.between(0, elapsed)
	d0 := func(n string) uint64 { return c1[n] - c0[n] }
	ph.Counters["engine.prefetch_hit_ratio"] = newRatio(d0("ctgaussd_prefetch_hits_total"),
		d0("ctgaussd_prefetch_hits_total")+d0("ctgaussd_prefetch_misses_total"))
	ph.Counters["convolve.accept_ratio"] = newRatio(d0("ctgaussd_arbitrary_accepted_total"), d0("ctgaussd_arbitrary_trials_total"))
	if tr != nil {
		ph.Counters["stages"] = stageMeans(reqs, outs)
	}
	return ph, nil
}

// stageMeans averages the daemon's stage trailer per endpoint (µs), with
// the client's round trip and its gap over the daemon's total.
func stageMeans(reqs []request, outs []outcome) map[string]map[string]float64 {
	sums := make([]map[string]float64, numEndpoints)
	n := make([]int, numEndpoints)
	for i := range sums {
		sums[i] = map[string]float64{}
	}
	for i, o := range outs {
		if o.Status != http.StatusOK || o.Stages == nil {
			continue
		}
		ep := reqs[i].Ep
		n[ep]++
		for st, ns := range o.Stages {
			sums[ep][st] += float64(ns) / 1e3
		}
		sums[ep]["client_rt"] += float64(o.RT.Nanoseconds()) / 1e3
		sums[ep]["client_gap"] += float64(o.RT.Nanoseconds()-o.Stages["total"]) / 1e3
		sums[ep]["samples"] += float64(reqs[i].Count)
	}
	out := map[string]map[string]float64{}
	for ep, name := range endpointNames {
		m := map[string]float64{"requests": float64(n[ep])}
		for k, v := range sums[ep] {
			if k == "samples" {
				m[k] = v
				continue
			}
			if n[ep] > 0 {
				m[k] = v / float64(n[ep])
			}
		}
		out[name] = m
	}
	return out
}
