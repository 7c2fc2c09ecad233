package main

import (
	"fmt"
	"math"
	"math/big"

	"ctgauss/internal/bigfp"
	"ctgauss/internal/ctcheck"
)

// Distribution gate: the chi-square p-value of the subsample against the
// bigfp reference must clear gofAlpha.  The order-2 Rényi divergence is
// printed beside it for information only: over the merged bins
// Rényi₂ − 1 is exactly χ²/N, so any fixed Rényi bound loose enough for
// the small subsamples is implied by the χ² test.
const (
	gofAlpha = 1e-6
	// The reference PMF spans ±refTails σ around each centre; the mass
	// beyond (≈10⁻¹⁹) is far below one over any subsample size, so a
	// draw outside the window fails the gate without a false alarm.
	refTails = 9
	refPrec  = 64
)

// drawSet is a subsample drawn at one (σ, μ).
type drawSet struct {
	sigma, mu float64
	samples   []int
}

// gof tests pooled draws (each set at its own σ and μ) against the bigfp
// reference: the expected distribution of the pool is the count-weighted
// mixture of each set's D_{ℤ,σ,μ}.
func gof(name string, sets []drawSet) check {
	var all []int
	lo, hi := math.MaxInt, math.MinInt
	for _, s := range sets {
		all = append(all, s.samples...)
		lo = min(lo, int(math.Floor(s.mu-refTails*s.sigma)))
		hi = max(hi, int(math.Ceil(s.mu+refTails*s.sigma)))
	}
	if len(all) == 0 {
		return check{Name: name, Pass: false, Detail: "no samples collected"}
	}
	probs := make([]float64, hi-lo+1)
	for _, s := range sets {
		sb := new(big.Float).SetPrec(refPrec).SetFloat64(s.sigma)
		mb := new(big.Float).SetPrec(refPrec).SetFloat64(s.mu)
		slo := int(math.Floor(s.mu - refTails*s.sigma))
		p, _ := bigfp.PMF(sb, mb, int64(slo), int64(math.Ceil(s.mu+refTails*s.sigma)), refPrec)
		w := float64(len(s.samples)) / float64(len(all))
		for i, v := range p {
			probs[slo-lo+i] += w * v
		}
	}
	g := ctcheck.GOFAgainst(all, lo, probs)
	return check{
		Name: name,
		Pass: g.PValue >= gofAlpha,
		Detail: fmt.Sprintf("n=%d sets=%d chi2=%.1f df=%d p=%.3g (min %g) renyi2=%.4f",
			g.N, len(sets), g.Stat, g.DF, g.PValue, gofAlpha, g.Renyi2),
	}
}

// outside counts samples with |x − μ| beyond bound.
func outside(xs []int, mu, bound float64) int {
	n := 0
	for _, x := range xs {
		if math.Abs(float64(x)-mu) > bound {
			n++
		}
	}
	return n
}
