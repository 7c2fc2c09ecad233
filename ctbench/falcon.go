package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ctgauss/falcon"
)

// falconN is the ring degree of every Falcon key the benchmark uses.
const falconN = 512

// falconKeySeed fixes the signing key: the key belongs to the deployment,
// not to the workload, so every seed signs under the same key and
// key-generation time does not vary with --seed.
var falconKeySeed = []byte("ctbench/falcon-512 key")

// falconSign is the falcon-sign workload: procs closed-loop callers of
// falcon.SignerPool.Sign at N=512 with the bitsliced base sampler.
type falconSign struct {
	seed    uint64
	procs   int
	sk      *falcon.PrivateKey
	signers *falcon.SignerPool
	runs    int
}

func newFalconSign(seed uint64, procs int, sk *falcon.PrivateKey) (*falconSign, error) {
	if sk == nil {
		var err error
		if sk, err = falcon.Keygen(falconN, falconKeySeed); err != nil {
			return nil, fmt.Errorf("falcon keygen: %w", err)
		}
	}
	sp, err := falcon.NewSignerPool(sk, falcon.BaseBitsliced, subSeed(seed, "falcon/signer"), procs)
	if err != nil {
		return nil, fmt.Errorf("falcon signer pool: %w", err)
	}
	return &falconSign{seed: seed, procs: procs, sk: sk, signers: sp}, nil
}

func (w *falconSign) close() { w.signers.Close() }

type signed struct {
	msg []byte
	sig *falcon.Signature
}

type signCaller struct {
	tried, failed int
	ops           []opRec
	sigs          []signed
	// badWarm counts warm-up signatures that failed verification.
	badWarm, warmSigs int
}

// run signs seeded 32-byte messages for warm (untimed, so the signer
// shards' sampler rings fill; each signature is verified as it comes) and
// then for d, keeping the signatures for verification after the timed
// window.
func (w *falconSign) run(ctx context.Context, warm, d time.Duration, tr *tracer) (*phase, error) {
	w.runs++
	pk := w.sk.Public()
	meter := startRSSMeter()
	warmed := w.drive(ctx, "warm", warm, nil, pk)
	rss := meter.mean()
	attempts0 := w.signers.Attempts()
	rt0, steal0 := readRuntime(), stealSeconds()
	start := time.Now()
	callers := w.drive(ctx, "run", d, tr, nil)
	ph := &phase{Workload: "falcon-sign", Traced: tr != nil, Elapsed: time.Since(start), Stretch: d,
		Runtime: readRuntime().sub(rt0), RSSMeanMB: rss, StealS: stealSeconds() - steal0,
		Figures: map[string]figure{}, Counters: map[string]any{}}
	attempts := w.signers.Attempts() - attempts0
	bad, total := 0, 0
	for _, c := range warmed {
		bad += c.badWarm
		total += c.warmSigs
	}
	for _, c := range callers {
		ph.Attempted += c.tried
		ph.Failed += c.failed
		ph.ops = append(ph.ops, c.ops...)
		for _, s := range c.sigs {
			total++
			if pk.Verify(s.msg, s.sig) != nil {
				bad++
			}
		}
	}
	ph.Failed += bad
	ph.Checks = append(ph.Checks, check{Name: "verify", Pass: bad == 0,
		Detail: fmt.Sprintf("%d of %d signatures (warm-up included) fail verification", bad, total)})
	lat := summarize(ph.latencies(), "us", 1e3)
	ph.Figures["signs_per_s"] = figure{float64(len(ph.ops)) / ph.Elapsed.Seconds(), "1/s", len(ph.ops)}
	ph.Figures["sign_p50_us"] = figure{lat.P50, "us", lat.Count}
	ph.Figures["sign_p99_us"] = figure{lat.P99, "us", lat.Count}
	ph.Counters["sign_latency"] = lat
	ph.Counters["attempts_per_sign"] = newRatio(attempts, uint64(len(ph.ops)))
	return ph, nil
}

// drive runs procs closed-loop signers until d has passed.  With pk set
// (the untimed warm-up) each signature is verified at once and only the
// verdicts are kept; otherwise every operation and signature is kept.
func (w *falconSign) drive(ctx context.Context, label string, d time.Duration, tr *tracer, pk *falcon.PublicKey) []signCaller {
	callers := make([]signCaller, w.procs)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &callers[c]
			rng := newRand(w.seed, fmt.Sprintf("falcon-sign/caller%d/%s%d", c, label, w.runs))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				msg := make([]byte, 32)
				for i := range msg {
					msg[i] = byte(rng.Uint32())
				}
				t0 := time.Now()
				sig, err := w.signers.Sign(msg)
				t1 := time.Now()
				if pk != nil {
					out.warmSigs++
					if err != nil || pk.Verify(msg, sig) != nil {
						out.badWarm++
					}
					continue
				}
				out.tried++
				if err != nil {
					out.failed++
					continue
				}
				tr.record("falcon.pool_sign", uint64(c)<<40|uint64(out.tried), 0, t0, t1, 1)
				out.ops = append(out.ops, opRec{At: t1.Sub(start).Nanoseconds(), Lat: float64(t1.Sub(t0).Nanoseconds()), N: 1})
				out.sigs = append(out.sigs, signed{msg, sig})
			}
		}(c)
	}
	wg.Wait()
	return callers
}
