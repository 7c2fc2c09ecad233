package server

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// scrapeAll fetches /metrics and returns every sample line keyed by its
// name-and-labels prefix, with the value kept as its exact exposition
// text.
func scrapeAll(t *testing.T, baseURL string) map[string]string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		out[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDrawRouteTable pins which serving route each request shape takes
// and which ledgers that route advances, with tiering off and with the
// requested σ force-promoted onto a compiled pool.  A precompiled σ
// never leaves its pool; a free-form μ=0 key follows the tier; μ≠0 is
// always convolved.
func TestDrawRouteTable(t *testing.T) {
	const n = 64
	type ledger struct {
		served, arbitrary, compiled, convolved, perSigma, observed float64
	}
	cases := []struct {
		name     string
		path     string
		req      any
		sigma    float64 // the key ForcePromote targets and the per-σ label
		promoted bool
		header   string // "" = X-Ctgauss-Tier absent
		want     ledger
	}{
		{"precompiled/off", "/v1/samples", samplesRequest{Count: n, Sigma: "2"}, 2, false, "",
			ledger{served: n}},
		{"freeform-samples/off", "/v1/samples", samplesRequest{Count: n, Sigma: "2.5"}, 2.5, false, "convolved",
			ledger{served: n, arbitrary: n, perSigma: n}},
		{"arbitrary-mu0/off", "/v1/arbitrary", arbitraryRequest{Count: n, Sigma: 2.5}, 2.5, false, "convolved",
			ledger{served: n, arbitrary: n, perSigma: n}},
		{"arbitrary-mu/off", "/v1/arbitrary", arbitraryRequest{Count: n, Sigma: 2.5, Mu: 0.5}, 2.5, false, "convolved",
			ledger{served: n, arbitrary: n, perSigma: n}},

		{"precompiled/promoted", "/v1/samples", samplesRequest{Count: n, Sigma: "2"}, 2, true, "",
			ledger{served: n}},
		{"freeform-samples/promoted", "/v1/samples", samplesRequest{Count: n, Sigma: "2.5"}, 2.5, true, "compiled",
			ledger{served: n, compiled: n, perSigma: n, observed: n}},
		{"arbitrary-mu0/promoted", "/v1/arbitrary", arbitraryRequest{Count: n, Sigma: 2.5}, 2.5, true, "compiled",
			ledger{served: n, compiled: n, perSigma: n, observed: n}},
		{"arbitrary-mu/promoted", "/v1/arbitrary", arbitraryRequest{Count: n, Sigma: 2.5, Mu: 0.5}, 2.5, true, "convolved",
			ledger{served: n, arbitrary: n, convolved: n, perSigma: n}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, func(c *Config) {
				c.FalconKey = nil
				c.FalconN = 0
				c.ArbitraryShards = 2
				if tc.promoted {
					tierTestConfig(c)
				}
			})
			if tc.promoted {
				if err := s.Tier().ForcePromote(tc.sigma); err != nil {
					t.Fatal(err)
				}
			}
			observed := func() float64 {
				if s.Tier() == nil {
					return 0
				}
				for _, k := range s.Tier().Snapshot() {
					if k.Sigma == tc.sigma {
						return float64(k.Samples)
					}
				}
				return 0
			}
			ledgers := []struct {
				series string
				want   float64
			}{
				{"ctgaussd_samples_served_total", tc.want.served},
				{"ctgaussd_arbitrary_samples_total", tc.want.arbitrary},
				{`ctgaussd_tier_samples_total{tier="compiled"}`, tc.want.compiled},
				{`ctgaussd_tier_samples_total{tier="convolved"}`, tc.want.convolved},
				{fmt.Sprintf(`ctgaussd_arbitrary_sigma_samples_total{sigma="%g"}`, tc.sigma), tc.want.perSigma},
			}
			value := func(m map[string]string, k string) float64 {
				v, ok := m[k]
				if !ok {
					return 0
				}
				var f float64
				if _, err := fmt.Sscan(v, &f); err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				return f
			}

			before, obsBefore := scrapeAll(t, ts.URL), observed()
			resp, body := postJSONT(t, ts.URL+tc.path, tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got, ok := resp.Header[http.CanonicalHeaderKey(tierHeader)]; tc.header == "" && ok {
				t.Fatalf("%s = %q on a precompiled draw, want absent", tierHeader, got)
			} else if got := resp.Header.Get(tierHeader); got != tc.header {
				t.Fatalf("%s = %q, want %q", tierHeader, got, tc.header)
			}
			after := scrapeAll(t, ts.URL)
			for _, l := range ledgers {
				if got := value(after, l.series) - value(before, l.series); got != l.want {
					t.Errorf("%s advanced by %v, want %v", l.series, got, l.want)
				}
			}
			if got := observed() - obsBefore; got != tc.want.observed {
				t.Errorf("tier controller observed %v samples of σ=%g, want %v", got, tc.sigma, tc.want.observed)
			}
			// Tier ledgers exist exactly when the controller does.
			if _, ok := after[`ctgaussd_tier_samples_total{tier="compiled"}`]; ok != tc.promoted {
				t.Errorf("tier_samples_total present = %v with tiering on = %v", ok, tc.promoted)
			}
		})
	}
}

// TestEndpointLatencySeries pins the ctgaussd_latency_seconds shape:
// p50 ≤ p99, both log2-bucket upper bounds (2^i ns), and a mean row
// only for endpoints that have served a request.
func TestEndpointLatencySeries(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.FalconKey = nil
		c.FalconN = 0
	})
	for i := 0; i < 20; i++ {
		drawSamples(t, ts.URL, 16)
	}
	m := scrapeAll(t, ts.URL)
	series := func(ep, q string) string {
		return fmt.Sprintf("ctgaussd_latency_seconds{endpoint=%q,quantile=%q}", ep, q)
	}
	bucketBound := func(v string) (float64, bool) {
		for i := 0; i < 37; i++ {
			b := float64(uint64(1)<<uint(i)) / 1e9
			if fmt.Sprintf("%g", b) == v {
				return b, true
			}
		}
		return 0, false
	}
	p50, ok50 := bucketBound(m[series(epSamples, "0.5")])
	p99, ok99 := bucketBound(m[series(epSamples, "0.99")])
	if !ok50 || !ok99 {
		t.Fatalf("quantiles are not 2^i ns bucket bounds: p50=%q p99=%q", m[series(epSamples, "0.5")], m[series(epSamples, "0.99")])
	}
	if p50 > p99 {
		t.Fatalf("p50 %g > p99 %g", p50, p99)
	}
	if _, ok := m[series(epSamples, "mean")]; !ok {
		t.Fatal("mean row missing for an endpoint with requests")
	}
	// No falcon request was made: quantiles read 0 and there is no mean.
	if v := m[series(epSign, "0.5")]; v != "0" {
		t.Fatalf("idle endpoint p50 = %q, want 0", v)
	}
	if v, ok := m[series(epSign, "mean")]; ok {
		t.Fatalf("idle endpoint has a mean row (%q)", v)
	}
}
