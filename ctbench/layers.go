package main

import (
	"fmt"
	"strconv"
	"time"

	"ctgauss"
	"ctgauss/falcon"
	"ctgauss/internal/bitslice"
	"ctgauss/internal/core"
	ifalcon "ctgauss/internal/falcon"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
	"ctgauss/internal/sampler/gen"
)

// replayBudget is the wall time each micro replay measures for.
const replayBudget = 150 * time.Millisecond

// timeLoop calls fn in batches of batch until budget has passed and
// returns the calls made and the time they took.
func timeLoop(budget time.Duration, batch int, fn func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
		if el := time.Since(start); el >= budget {
			return n, el
		}
	}
}

// replay runs one timed layer replay and records it as a span under
// parent; it returns ns per unit, where each call covers perCall units.
func replay(tr *tracer, parent int64, name string, batch, perCall int, fn func()) float64 {
	start := time.Now()
	calls, el := timeLoop(replayBudget, batch, fn)
	tr.record(name, 0, parent, start, start.Add(el), calls*perCall)
	return float64(el.Nanoseconds()) / float64(calls*perCall)
}

// sigmaLayers is one pool σ's refill split: the sampler the pool builds
// driven through NextBatch, and its circuit, PRNG and unpack parts.
type sigmaLayers struct {
	Sigma     string  `json:"sigma"`
	Compiled  bool    `json:"compiled"`
	Width     int     `json:"width"`
	NumInputs int     `json:"num_inputs"`
	RefillNs  float64 `json:"refill_ns_per_sample"`
	PRNGNs    float64 `json:"prng_ns_per_sample"`
	EvalNs    float64 `json:"eval_ns_per_sample"`
	UnpackNs  float64 `json:"unpack_ns_per_sample"`
	StageNs   float64 `json:"stage_ns_per_sample"`
	BuildMs   float64 `json:"build_ms"`
}

// layerReplays are the micro replays of the sampling core, convolve and
// Falcon layers, each timed from outside around the layer's public calls.
type layerReplays struct {
	// PRNGNsPerWord is FillWords' cost per word over one σ=4 refill
	// (RefillWords words, the interpreter at native width).
	PRNGNsPerWord float64       `json:"prng_ns_per_word"`
	RefillWords   int           `json:"refill_words"`
	UnpackNs      float64       `json:"unpack_ns_per_sample"`
	Sigmas        []sigmaLayers `json:"sigmas"`

	ConvolveNs     float64 `json:"convolve_ns_per_sample"`
	ConvolveAccept ratio   `json:"convolve_accept_ratio"`
	ConvolveBits   ratio   `json:"convolve_bits_per_sample"`

	SignUs float64 `json:"falcon_sign_us"`
	Signs  int     `json:"falcon_signs"`
	BaseNs float64 `json:"falcon_base_ns_per_sample"`
}

// runLayerReplays measures every micro replay; the spans hang under one
// "replays" root.
func runLayerReplays(seed uint64, sk *falcon.PrivateKey, tr *tracer) (*layerReplays, error) {
	root := tr.reserve()
	rootStart := time.Now()
	out := &layerReplays{}
	w := sampler.NativeWidth()

	var sink int
	dst := make([]int, 64)
	for _, sigma := range poolSigmas {
		sl := sigmaLayers{Sigma: sigma, Width: w}
		t0 := time.Now()
		if _, err := core.Build(core.Config{Sigma: sigma, N: 128, TailCut: 13}); err != nil {
			return nil, fmt.Errorf("core build σ=%s: %w", sigma, err)
		}
		t1 := time.Now()
		tr.record("replay.core.build", 0, root, t0, t1, 1)
		sl.BuildMs = float64(t1.Sub(t0).Nanoseconds()) / 1e6

		art, err := registry.Shared().Get(core.Config{Sigma: sigma, N: 128, TailCut: 13})
		if err != nil {
			return nil, err
		}
		src, err := prng.NewSource("chacha20", subSeed(seed, "replay/sampler/"+sigma))
		if err != nil {
			return nil, err
		}
		fn, nin, nval, ok := gen.Lookup(sigma)
		var s sampler.BatchSampler
		var eval func()
		perEval := 64
		if ok && nin == art.Program.NumInputs && nval == art.Program.ValueBits {
			sl.Compiled, sl.Width = true, 1
			s = sampler.NewCompiled("replay-compiled("+sigma+")", fn, nin, nval, src)
			in, o := randomWords(seed, nin), make([]uint64, nval)
			eval = func() { fn(in, o) }
		} else {
			nin = art.Program.NumInputs
			s = art.NewWideSampler(src, w)
			opt := art.Optimized()
			in, slots, o := randomWords(seed, nin*w), opt.NewSlots(w), make([]uint64, len(opt.Outputs)*w)
			eval = func() { opt.RunWideInto(w, in, slots, o) }
			perEval = 64 * w
		}
		sl.NumInputs = nin
		// The PRNG share is one refill's words drawn as the sampler draws
		// them: (inputs + sign) words per batch, Width batches per refill.
		br := prng.NewBitReader(mustSource(seed, "replay/prng/"+sigma))
		words := make([]uint64, (nin+1)*sl.Width)
		perWord := replay(tr, root, "replay.prng.fillwords.sigma"+sigma, 8, len(words), func() { br.FillWords(words) })
		sl.PRNGNs = perWord * float64(nin+1) / 64
		if sigma == interpSigma {
			out.PRNGNsPerWord, out.RefillWords = perWord, len(words)
		}
		sl.RefillNs = replay(tr, root, "replay.sampler.refill.sigma"+sigma, 64, 64, func() {
			s.NextBatch(dst)
			sink += dst[0]
		})
		sl.EvalNs = replay(tr, root, "replay.bitslice.eval.sigma"+sigma, 16, perEval, eval)
		out.Sigmas = append(out.Sigmas, sl)
	}

	planes := randomWords(seed, 8)
	out.UnpackNs = replay(tr, root, "replay.bitslice.unpack", 64, 64, func() {
		bitslice.UnpackAll(planes, dst)
		sink += dst[0]
	})
	for i := range out.Sigmas {
		sl := &out.Sigmas[i]
		sl.UnpackNs = out.UnpackNs
		sl.StageNs = sl.RefillNs - sl.PRNGNs - sl.EvalNs - sl.UnpackNs
	}

	if err := out.convolve(seed, tr, root); err != nil {
		return nil, err
	}

	signer, err := falcon.NewSigner(sk, falcon.BaseBitsliced, subSeed(seed, "replay/signer"))
	if err != nil {
		return nil, err
	}
	rng := newRand(seed, "replay/messages")
	var signNs dist
	signStart := time.Now()
	for time.Since(signStart) < 4*replayBudget || len(signNs) < 20 {
		msg := make([]byte, 32)
		for i := range msg {
			msg[i] = byte(rng.Uint32())
		}
		t0 := time.Now()
		if _, err := signer.Sign(msg); err != nil {
			return nil, fmt.Errorf("replay sign: %w", err)
		}
		t1 := time.Now()
		tr.record("replay.falcon.sign", 0, root, t0, t1, 1)
		signNs = append(signNs, float64(t1.Sub(t0).Nanoseconds()))
	}
	out.SignUs, out.Signs = signNs.sorted().quantile(0.5)/1e3, len(signNs)

	base, err := ifalcon.NewBaseSampler(ifalcon.BaseBitsliced, subSeed(seed, "replay/base"))
	if err != nil {
		return nil, err
	}
	out.BaseNs = replay(tr, root, "replay.falcon.base", 256, 1, func() { sink += base.Next() })

	tr.add(span{Name: "replays", ID: root, Start: tr.since(rootStart), End: tr.since(time.Now())})
	_ = sink
	return out, nil
}

// convolve replays daemon-open's arbitrary-layer (σ, μ, count) mix on a
// one-shard ctgauss.Arbitrary.
func (out *layerReplays) convolve(seed uint64, tr *tracer, root int64) error {
	arb, err := ctgauss.NewArbitrary(ctgauss.ArbitraryConfig{Shards: 1, Seed: subSeed(seed, "replay/arbitrary")})
	if err != nil {
		return err
	}
	defer arb.Close()
	var reqs []request
	for _, r := range schedule(seed, "replay", defaultRate, 20*time.Second) {
		if r.Ep == epArbitrary {
			reqs = append(reqs, r)
		}
	}
	dst := make([]int, arbMaxCount)
	st0, bits0 := arb.Stats(), arb.BitsUsed()
	var samples int
	start := time.Now()
	for i := 0; time.Since(start) < 3*replayBudget; i++ {
		r := reqs[i%len(reqs)]
		t0 := time.Now()
		if err := arb.NextBatch(r.Sigma, r.Mu, dst[:r.Count]); err != nil {
			return fmt.Errorf("replay arbitrary σ=%g: %w", r.Sigma, err)
		}
		tr.record("replay.convolve", 0, root, t0, time.Now(), r.Count)
		samples += r.Count
	}
	el := time.Since(start)
	st := arb.Stats()
	out.ConvolveNs = float64(el.Nanoseconds()) / float64(samples)
	out.ConvolveAccept = newRatio(st.Accepted-st0.Accepted, st.Trials-st0.Trials)
	out.ConvolveBits = newRatio(arb.BitsUsed()-bits0, uint64(samples))
	return nil
}

// randomWords is n seeded words, standing in for circuit inputs.
func randomWords(seed uint64, n int) []uint64 {
	rng := newRand(seed, "replay/words/"+strconv.Itoa(n))
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

func mustSource(seed uint64, label string) prng.Source {
	src, err := prng.NewSource("chacha20", subSeed(seed, label))
	if err != nil {
		panic(err) // chacha20 accepts any 32-byte seed
	}
	return src
}
