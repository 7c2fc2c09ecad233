package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"ctgauss/internal/obs"
)

// tierHeader names the response header carrying the tier that served a
// free-form request.  The routing decision is taken once per request
// and the compiled pool is refcounted across the whole draw, so the
// header is a guarantee, not a hint: every sample in the response came
// from the named tier.
const tierHeader = "X-Ctgauss-Tier"

// errShed refuses a convolved draw while the arbitrary layer's base
// engines are degraded (503 + Retry-After).
var errShed = errors.New("arbitrary layer degraded: a base shard is restarting")

// drawKey is what one request asks to draw.  /v1/samples names σ by its
// spelling: a precompiled pool's key, or else a decimal the free-form
// layer serves at μ = 0.  /v1/arbitrary leaves the spelling empty and
// gives σ and μ as numbers, so it never reaches a precompiled pool.
type drawKey struct {
	spelling  string
	sigma, mu float64
}

// draw fills out for key k along the server's one route:
//
//  1. a precompiled σ spelling → that σ's Pool.Take;
//  2. otherwise, with the arbitrary layer off → unknown σ;
//  3. μ = 0 with a promoted key → the tier's compiled pool (a failure
//     other than ctx falls through to 4, as a failed build does);
//  4. base engines degraded → shed (503);
//  5. otherwise → the convolution layer.
//
// It returns the free-form tier that served ("compiled" or "convolved";
// "" for a precompiled σ) and advances every serving ledger, so handlers
// only decode, validate, draw and encode.  Errors map to responses via
// writeDrawError.
func (s *Server) draw(ctx context.Context, k drawKey, out []int) (string, error) {
	tr := tracedCtx(ctx)
	n := uint64(len(out))
	if pool, ok := s.pools[k.spelling]; ok {
		t0 := tr.Now()
		err := pool.Take(ctx, out)
		tr.End(obs.StageCoalesce, t0)
		if err != nil {
			return "", err
		}
		s.m.samples.Add(n)
		return "", nil
	}
	if s.arb == nil {
		return "", fmt.Errorf("unknown sigma %q (served: %v)", k.spelling, s.cfg.Sigmas)
	}
	if k.spelling != "" {
		sigma, err := strconv.ParseFloat(k.spelling, 64)
		if err != nil {
			return "", fmt.Errorf("unknown sigma %q (precompiled: %v; free-form σ must be a decimal)", k.spelling, s.cfg.Sigmas)
		}
		k.sigma = sigma
	}

	served := ""
	if s.tier != nil && k.mu == 0 {
		t0 := tr.Now()
		pool, release, ok := s.tier.Acquire(k.sigma)
		tr.End(obs.StageRoute, t0)
		if ok {
			start := time.Now()
			err := pool.Take(ctx, out)
			tr.End(obs.StageCoalesce, start)
			release()
			switch {
			case err == nil:
				served = "compiled"
				s.m.tierCompiledSamples.Add(n)
				s.m.tierCompiledNanos.Add(uint64(time.Since(start).Nanoseconds()))
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				return "", err
			}
			// Any other failure is a degraded or closing promoted pool:
			// the convolved tier is still there.
		}
	}
	if served == "" {
		// A poisoned base shard sheds the free-form layer first, so the
		// precompiled pools keep their capacity while it restarts.
		if s.arb.Degraded() {
			return "", errShed
		}
		start := time.Now()
		err := s.arb.NextBatchContext(ctx, k.sigma, k.mu, out)
		tr.End(obs.StageCoalesce, start)
		if err != nil {
			return "", err
		}
		s.m.arbSamples.Add(n)
		s.m.tierConvolvedSamples.Add(n)
		s.m.tierConvolvedNanos.Add(uint64(time.Since(start).Nanoseconds()))
		served = "convolved"
	}

	s.m.samples.Add(n)
	s.m.recordSigma(k.sigma, n)
	if s.tier != nil && k.mu == 0 {
		s.tier.Observe(k.sigma, len(out))
	}
	tr.SetTier(served)
	return served, nil
}
