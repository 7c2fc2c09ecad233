package acceptance

import (
	"bytes"
	"encoding/json"
	"testing"

	"ctgauss/internal/bitslice/dispatch"
)

// TestEvalCellPowerAndEncoding checks the gate's two sides on synthetic
// data: an obviously wrong empirical distribution must fail, and samples
// outside the reference window must fail with the −1 χ² encoding (JSON
// cannot carry +Inf).
func TestEvalCellPowerAndEncoding(t *testing.T) {
	gates := Gates{}.normalize()

	// 4096 zeros are not D_{ℤ,2,0}.
	zeros := make([]int, 4096)
	if c := evalCell(zeros, 2, 0, 96, gates); c.Pass {
		t.Fatalf("constant-zero samples passed the σ=2 gate: %+v", c)
	}

	// A sample at 40σ lies outside the 12σ window.
	out := make([]int, 4096)
	out[17] = 80
	c := evalCell(out, 2, 0, 96, gates)
	if c.Pass {
		t.Fatalf("out-of-window sample passed: %+v", c)
	}
	if c.ChiSquare != -1 || c.Err == "" {
		t.Fatalf("out-of-window cell should encode χ²=−1 with an error, got %+v", c)
	}
}

// TestReportFinalizeAndJSON pins the aggregate-pass rule — gated
// sections decide, ungated ones don't — and the JSON round trip CI
// depends on.
func TestReportFinalizeAndJSON(t *testing.T) {
	r := &Report{
		Modes: []string{"grid", "ct"},
		Grid: &GridReport{
			Cells: []CellResult{{Surface: "compiled", Sigma: 2, Pass: true}},
		},
		Timing: []TimingResult{
			{Name: "bitsliced", Gated: true, Pass: true},
			{Name: "bytescan", Gated: false, Pass: false}, // informational failure
		},
		Work: []WorkResult{{Name: "bits/refill", Gated: true, Pass: true}},
	}
	r.Finalize()
	if !r.Pass || !r.Grid.Pass {
		t.Fatalf("report with only ungated failures must pass: %+v", r)
	}
	r.Work[0].Pass = false
	r.Finalize()
	if r.Pass {
		t.Fatal("gated work failure must fail the report")
	}
	r.Work[0].Pass = true
	r.Grid.Cells = append(r.Grid.Cells, CellResult{Surface: "http", Sigma: 3.5, Pass: false})
	r.Finalize()
	if r.Pass || r.Grid.Pass {
		t.Fatal("failing grid cell must fail the report")
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Version != ReportVersion || back.Pass != r.Pass || len(back.Grid.Cells) != 2 {
		t.Fatalf("round-tripped report diverges: %+v", back)
	}
}

// TestGoldenVerify is the standing regression net: every pinned stream —
// each PRNG on the interpreter plus the compiled circuits — must match
// testdata/golden.json under every SIMD backend this machine can run,
// at every width in GoldenWidths and every prefetch depth.  One pinned
// digest per stream covers the whole (backend, width, depth) grid, and
// the full-precision interpreter must reproduce the compiled digests.
func TestGoldenVerify(t *testing.T) {
	backends := 1 + len(dispatch.Detected())
	results, err := VerifyGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(GoldenCases()) {
		t.Fatalf("%d results for %d cases", len(results), len(GoldenCases()))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("golden %s: %s", r.Name, r.Err)
			continue
		}
		if len(r.Backends) != backends || len(r.Widths) != len(GoldenWidths) || len(r.DepthsVerified) != len(GoldenDepths) {
			t.Errorf("golden %s verified on %v at widths %v, depths %v; want %d backends, widths %v, depths %v",
				r.Name, r.Backends, r.Widths, r.DepthsVerified, backends, GoldenWidths, GoldenDepths)
		}
	}
}

// TestSmokeGrid runs the budgeted PR grid end to end — compiled,
// convolved and HTTP surfaces against the bigfp reference.  It is the
// same code path CI's acceptance job drives through cmd/ctcheck.
func TestSmokeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke grid draws ~100k samples; skipped in -short")
	}
	rep, err := RunGrid(GridOptions{Smoke: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		for _, c := range rep.Cells {
			if !c.Pass {
				t.Errorf("cell %s/%s σ=%g μ=%g failed: p=%g R₂=%g err=%q",
					c.Surface, c.Endpoint, c.Sigma, c.Mu, c.PValue, c.Renyi2, c.Err)
			}
		}
		t.Fatal("smoke grid failed")
	}
	surfaces := map[string]int{}
	for _, c := range rep.Cells {
		surfaces[c.Surface]++
	}
	for _, s := range []string{"compiled", "convolved", "http"} {
		if surfaces[s] == 0 {
			t.Fatalf("smoke grid has no %s cells: %v", s, surfaces)
		}
	}
}
