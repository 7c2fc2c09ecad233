// Package acceptance is the continuous statistical + constant-time
// acceptance harness: the standing correctness gate every performance PR
// runs under.
//
// The paper's claim is twofold — the compiled sampler is a faithful
// discrete Gaussian AND its execution is constant-time (§5.2's
// dudect-style analysis).  This package turns both halves into one
// reusable, machine-readable verdict over the whole served surface:
//
//   - Grid (grid.go): sweep a configurable (σ, μ) grid across the three
//     serving surfaces — direct-compiled circuits (ctgauss.Pool),
//     convolved plans (ctgauss.Arbitrary), and the HTTP daemon (an
//     httptest-mounted internal/server) — and cross-validate every cell
//     against the independent high-precision reference in internal/bigfp
//     with chi-square and Rényi-divergence gates (the Carm protocol: an
//     implementation is accepted only against a reference computed by a
//     different pipeline at much higher precision).
//   - Golden vectors (golden.go): pin the exact output stream of every
//     PRNG backend × engine-width combination, verified at several
//     prefetch depths, so any change to the evaluation pipeline that
//     moves a single sample is caught byte-for-byte.
//   - Constant-time (ct.go): a budgeted dudect pass (Welch's t between
//     input classes) over the bitsliced evaluation, the CDT baselines,
//     and the convolve combine/round path, plus the deterministic
//     work-count ledgers that stay meaningful under a GC runtime.
//
// cmd/ctcheck drives all three modes and emits the Report as a JSON
// artifact; CI runs a budgeted smoke grid on PRs and the full grid on
// main (see docs/ACCEPTANCE.md).
package acceptance

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"math/big"

	"ctgauss/internal/bigfp"
	"ctgauss/internal/ctcheck"
)

// Gates are the per-cell statistical acceptance thresholds.
type Gates struct {
	// Alpha is the minimum chi-square p-value (default 1e-6: a sound
	// sampler crosses it with probability 10⁻⁶ per cell, while a broken
	// one lands at ≈ 0 — the gate keeps its power at negligible flake
	// rate even though the HTTP surface's shard interleave is not
	// deterministic run to run).
	Alpha float64 `json:"alpha"`
	// MaxRenyi is the maximum order-2 Rényi divergence of the empirical
	// distribution against the reference (default 1.05; the finite-sample
	// expectation is ≈ 1 + bins/samples, well below it at the default
	// cell budget).
	MaxRenyi float64 `json:"max_renyi"`
}

func (g Gates) normalize() Gates {
	if g.Alpha == 0 {
		g.Alpha = 1e-6
	}
	if g.MaxRenyi == 0 {
		g.MaxRenyi = 1.05
	}
	return g
}

// CellResult is one grid cell's verdict: samples drawn from one surface
// for one (σ, μ), cross-validated against the bigfp reference PMF.
type CellResult struct {
	// Surface is "compiled", "convolved", "promoted", or "http".
	Surface string `json:"surface"`
	// Endpoint refines the http surface: "samples", "samples-freeform",
	// or "arbitrary".
	Endpoint string  `json:"endpoint,omitempty"`
	Sigma    float64 `json:"sigma"`
	Mu       float64 `json:"mu"`
	Samples  int     `json:"samples"`

	// ChiSquare is Pearson's statistic over the merged bins (−1 encodes
	// +Inf: a sample landed outside the 12σ reference window).
	ChiSquare float64 `json:"chi_square"`
	DF        int     `json:"df"`
	PValue    float64 `json:"p_value"`
	Renyi2    float64 `json:"renyi2"`
	Bins      int     `json:"bins"`
	// RefTailMass is the ideal mass the reference window strands (≈ e⁻⁷²
	// at 12σ) — recorded so a report reader can verify the reference
	// covered essentially all mass.
	RefTailMass float64 `json:"ref_tail_mass"`

	Pass bool   `json:"pass"`
	Err  string `json:"error,omitempty"`
}

// evalCell cross-validates samples against the bigfp reference for
// D_{ℤ,σ,μ} over the customary 12σ window.
func evalCell(samples []int, sigma, mu float64, prec uint, gates Gates) CellResult {
	lo := int(math.Floor(mu - 12*sigma))
	hi := int(math.Ceil(mu + 12*sigma))
	sb := new(big.Float).SetPrec(prec).SetFloat64(sigma)
	mb := new(big.Float).SetPrec(prec).SetFloat64(mu)
	probs, tail := bigfp.PMF(sb, mb, int64(lo), int64(hi), prec)
	g := ctcheck.GOFAgainst(samples, lo, probs)
	res := CellResult{
		Sigma:       sigma,
		Mu:          mu,
		Samples:     g.N,
		ChiSquare:   g.Stat,
		DF:          g.DF,
		PValue:      g.PValue,
		Renyi2:      g.Renyi2,
		Bins:        g.Bins,
		RefTailMass: tail,
		Pass:        g.Pass(gates.Alpha, gates.MaxRenyi),
	}
	if math.IsInf(res.ChiSquare, 1) {
		res.ChiSquare = -1
		res.Err = "samples outside the 12σ reference window"
	}
	if math.IsInf(res.Renyi2, 1) {
		res.Renyi2 = -1
	}
	return res
}

// GridReport is the grid mode's section of the Report.
type GridReport struct {
	Gates          Gates        `json:"gates"`
	SamplesPerCell int          `json:"samples_per_cell"`
	RefPrecision   uint         `json:"ref_precision_bits"`
	Cells          []CellResult `json:"cells"`
	Pass           bool         `json:"pass"`
}

// GoldenResult is one golden vector's verification verdict.
type GoldenResult struct {
	Name   string `json:"name"`
	PRNG   string `json:"prng"`
	SHA256 string `json:"sha256"`
	// Backends, Widths and DepthsVerified list the SIMD backends,
	// evaluation widths and engine prefetch depths whose streams matched
	// the pinned vector (identity across all of them is the contract,
	// not just identity at one).
	Backends       []string `json:"backends_verified,omitempty"`
	Widths         []int    `json:"widths_verified,omitempty"`
	DepthsVerified []int    `json:"depths_verified,omitempty"`
	Pass           bool     `json:"pass"`
	Err            string   `json:"error,omitempty"`
}

// TimingResult is one dudect comparison: Welch's t between two input
// classes of a target.  Gated targets fail the report when |t| exceeds
// Threshold; ungated targets are informational baselines.
type TimingResult struct {
	Name      string  `json:"name"`
	T         float64 `json:"t"`
	TRaw      float64 `json:"t_raw"`
	NA        int     `json:"n_a"`
	NB        int     `json:"n_b"`
	Threshold float64 `json:"threshold"`
	Gated     bool    `json:"gated"`
	Pass      bool    `json:"pass"`
	Note      string  `json:"note,omitempty"`
}

// WorkResult is one deterministic work-count verdict — the evidence that
// stays exact under a garbage-collected runtime.  For a gated target the
// count must be identical on every invocation.
type WorkResult struct {
	Name string `json:"name"`
	// Constant reports whether every recorded count was identical;
	// UnitsPerOp is that constant (bits per refill, comparisons per
	// sample, coins per trial — per target).
	Constant   bool   `json:"constant"`
	UnitsPerOp uint64 `json:"units_per_op,omitempty"`
	// Correlation is Pearson's r between work and |sample| where the
	// target's work varies (the leak signature of the byte-scan CDT).
	Correlation float64 `json:"correlation,omitempty"`
	Gated       bool    `json:"gated"`
	Pass        bool    `json:"pass"`
	Note        string  `json:"note,omitempty"`
}

// Report is the machine-readable acceptance artifact cmd/ctcheck emits
// and CI uploads: one JSON document carrying every verdict of a run.
type Report struct {
	Version int      `json:"version"`
	Modes   []string `json:"modes"`
	Smoke   bool     `json:"smoke,omitempty"`

	Grid   *GridReport    `json:"grid,omitempty"`
	Golden []GoldenResult `json:"golden,omitempty"`
	Timing []TimingResult `json:"timing,omitempty"`
	Work   []WorkResult   `json:"work,omitempty"`

	// Pass is the single CI gate: every gated verdict in every section
	// passed.
	Pass bool `json:"pass"`
}

// ReportVersion is the current Report schema version.
const ReportVersion = 1

// Finalize recomputes the aggregate Pass from every section.
func (r *Report) Finalize() {
	r.Version = ReportVersion
	r.Pass = true
	if r.Grid != nil {
		r.Grid.Pass = true
		for _, c := range r.Grid.Cells {
			if !c.Pass {
				r.Grid.Pass = false
			}
		}
		r.Pass = r.Pass && r.Grid.Pass
	}
	for _, g := range r.Golden {
		if !g.Pass {
			r.Pass = false
		}
	}
	for _, t := range r.Timing {
		if t.Gated && !t.Pass {
			r.Pass = false
		}
	}
	for _, w := range r.Work {
		if w.Gated && !w.Pass {
			r.Pass = false
		}
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// deriveSeed derives a fixed, role-separated seed for the harness's
// deterministic runs (32 bytes — valid for every PRNG backend).
func deriveSeed(role string) []byte {
	h := sha256.Sum256([]byte("ctgauss/acceptance/" + role))
	return h[:]
}
