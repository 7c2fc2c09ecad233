package acceptance

import (
	"testing"

	"ctgauss/internal/bitslice/dispatch"
)

// TestGoldenBackendsIdentical forces every backend this machine can run
// — portable always, plus each detected SIMD ISA — and regenerates each
// interpreter golden stream at the SIMD kernel widths (8 and 16) under
// each, one subtest per backend.  Every replay must produce the pinned
// w1 digest: the backend and the width change who executes the
// instruction stream and how many batches it spans, never a single
// emitted sample.  This is the serving deployment's cross-fleet
// contract — a mixed AVX-512/AVX2/portable fleet shards one logical
// stream space.  VerifyGolden checks the same identity over the full
// width and depth grid; this test names the backend that breaks it.
func TestGoldenBackendsIdentical(t *testing.T) {
	gf, err := loadGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, v := range gf.Vectors {
		pinned[v.Name] = v.SHA256
	}

	var cases []GoldenCase
	for _, c := range GoldenCases() {
		if c.Kind == "interp" {
			cases = append(cases, c)
		}
	}
	if len(cases) == 0 {
		t.Fatal("no interp golden cases")
	}

	backends := append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...)
	for _, backend := range backends {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			restore, err := dispatch.Force(backend)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			for _, c := range cases {
				want, ok := pinned[c.Name]
				if !ok {
					t.Errorf("%s: not pinned in golden file", c.Name)
					continue
				}
				for _, w := range []int{8, 16} {
					stream, err := goldenStream(c, c.Kind, w, 0)
					if err != nil {
						t.Fatalf("%s w=%d under %s: %v", c.Name, w, backend, err)
					}
					if got := hashSamples(stream); got != want {
						t.Errorf("%s w=%d under %s: digest %s… != pinned %s… (head %v)",
							c.Name, w, backend, got[:16], want[:16], stream[:8])
					}
				}
			}
		})
	}
}
