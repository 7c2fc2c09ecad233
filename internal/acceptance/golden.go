package acceptance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"ctgauss/internal/bitslice/dispatch"
	"ctgauss/internal/core"
	"ctgauss/internal/engine"
	"ctgauss/internal/prng"
	"ctgauss/internal/registry"
	"ctgauss/internal/sampler"
	"ctgauss/internal/sampler/gen"
)

// GoldenCase identifies one pinned stream: a sampler construction whose
// exact output is part of the repository's contract.
type GoldenCase struct {
	// Name is the stable identifier ("interp/chacha20/w1", ...); the seed
	// derives from it, so renaming a case re-keys its stream.
	Name string `json:"name"`
	// Kind is "interp" (bitsliced interpreter) or "compiled"
	// (pregenerated native circuit).
	Kind      string `json:"kind"`
	Sigma     string `json:"sigma"`
	Precision int    `json:"precision"`
	PRNG      string `json:"prng"`
	// Width is the evaluation width the digest is recorded at; the
	// stream is the same at every width, which VerifyGolden checks.
	Width int `json:"width"`
	// Count is the pinned stream length in samples.
	Count int `json:"count"`
}

// GoldenVector is a case plus its pinned digest.
type GoldenVector struct {
	GoldenCase
	// SHA256 is the hex digest of the Count samples as little-endian
	// int64 words.
	SHA256 string `json:"sha256"`
	// Head is the first few samples in the clear, so a mismatch report is
	// debuggable without re-deriving the stream.
	Head []int `json:"head"`
}

// GoldenFile is the on-disk golden set (testdata/golden.json).
type GoldenFile struct {
	Version int            `json:"version"`
	Vectors []GoldenVector `json:"vectors"`
}

// GoldenDepths are the engine prefetch depths every vector is verified
// at: the synchronous path, the default double buffer, and a deep ring.
// Identity across all of them is the cross-depth stream contract.
var GoldenDepths = []int{0, 2, 5}

// GoldenWidths are the evaluation widths every vector is verified at:
// the narrow interpreter layouts and the SIMD kernel widths 8 and 16
// (the portable and the AVX2/AVX-512 native widths).  One digest per
// stream at all of them is the one-layout contract.
var GoldenWidths = []int{1, 2, 4, 8, 16}

// goldenCount is the pinned stream length: two refills at the widest
// lane configuration, enough to cross several slot boundaries at every
// depth.
const goldenCount = 2048

// GoldenCases enumerates the pinned set, one row per stream: every PRNG
// backend on the interpreter path (reduced precision for build speed —
// the stream contract is configuration-specific, not precision-blind),
// plus the full-precision pregenerated native circuits.
func GoldenCases() []GoldenCase {
	var cases []GoldenCase
	for _, prngName := range []string{"chacha20", "shake256", "aes-ctr"} {
		cases = append(cases, GoldenCase{
			Name:      "interp/" + prngName + "/w1",
			Kind:      "interp",
			Sigma:     "2",
			Precision: 48,
			PRNG:      prngName,
			Width:     1,
			Count:     goldenCount,
		})
	}
	for _, sig := range gen.Sigmas() {
		cases = append(cases, GoldenCase{
			Name:      "compiled/chacha20/" + sig,
			Kind:      "compiled",
			Sigma:     sig,
			Precision: 128,
			PRNG:      "chacha20",
			Width:     1,
			Count:     goldenCount,
		})
	}
	return cases
}

// goldenStream regenerates a case's stream through the engine runtime,
// w batches per refill, at the given prefetch depth.  kind selects the
// circuit: "interp" evaluates the interpreter at width w, "compiled" the
// pregenerated native circuit (one batch per evaluation).
func goldenStream(c GoldenCase, kind string, w, depth int) ([]int, error) {
	art, err := registry.Shared().Get(core.Config{
		Sigma:   c.Sigma,
		N:       c.Precision,
		TailCut: 13,
		Min:     core.MinimizeExact,
	})
	if err != nil {
		return nil, fmt.Errorf("acceptance: golden %s: build: %w", c.Name, err)
	}
	src, err := prng.NewSource(c.PRNG, deriveSeed("golden/"+c.Name))
	if err != nil {
		return nil, fmt.Errorf("acceptance: golden %s: %w", c.Name, err)
	}
	var bs sampler.BatchSampler
	switch kind {
	case "interp":
		bs = art.NewWideSampler(src, w)
	case "compiled":
		fn, nin, nval, ok := gen.Lookup(c.Sigma)
		if !ok {
			return nil, fmt.Errorf("acceptance: golden %s: no generated circuit for σ=%s", c.Name, c.Sigma)
		}
		if nin != art.Program.NumInputs || nval != art.Program.ValueBits {
			return nil, fmt.Errorf("acceptance: golden %s: generated circuit shape (%d in, %d bits) diverges from build (%d in, %d bits) — rerun go generate",
				c.Name, nin, nval, art.Program.NumInputs, art.Program.ValueBits)
		}
		bs = sampler.NewCompiled("golden-compiled("+c.Sigma+")", fn, nin, nval, src)
	default:
		return nil, fmt.Errorf("acceptance: golden %s: unknown kind %q", c.Name, kind)
	}
	eng := engine.New(engine.Config{Shards: 1, SlotSize: w * 64, Depth: depth},
		func(_ int, dst []int) {
			for off := 0; off < len(dst); off += 64 {
				bs.NextBatch(dst[off : off+64])
			}
		})
	defer eng.Close()
	out := make([]int, c.Count)
	if err := eng.TakeFrom(nil, 0, out); err != nil {
		return nil, fmt.Errorf("acceptance: golden %s: %w", c.Name, err)
	}
	return out, nil
}

// hashSamples digests samples as little-endian int64 words.
func hashSamples(samples []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(s)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RecordGolden regenerates every case at the synchronous depth and
// writes the golden file.  Run it (ctcheck -golden record) only when a
// stream change is intended — see docs/ACCEPTANCE.md for the rotation
// protocol.
func RecordGolden(path string) (*GoldenFile, error) {
	gf := &GoldenFile{Version: ReportVersion}
	for _, c := range GoldenCases() {
		stream, err := goldenStream(c, c.Kind, c.Width, 0)
		if err != nil {
			return nil, err
		}
		head := stream
		if len(head) > 8 {
			head = head[:8]
		}
		gf.Vectors = append(gf.Vectors, GoldenVector{
			GoldenCase: c,
			SHA256:     hashSamples(stream),
			Head:       append([]int(nil), head...),
		})
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return gf, nil
}

// loadGolden reads and parses a pinned golden file.
func loadGolden(path string) (*GoldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("acceptance: reading golden file: %w", err)
	}
	var gf GoldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return nil, fmt.Errorf("acceptance: parsing golden file %s: %w", path, err)
	}
	return &gf, nil
}

// VerifyGolden checks every current case against the pinned file.  Each
// case's stream is regenerated under every backend this machine can run
// (dispatch.Force), at every width in GoldenWidths and every depth in
// GoldenDepths, and each replay must match the pinned digest: backend,
// width and depth choose speed, never a sample.  A compiled case is also
// replayed through the interpreter at the backend's native width, so
// the generated circuit and the interpreter pin one stream.  A case
// missing from the file, a stale vector without a matching case, or any
// digest mismatch fails.
func VerifyGolden(path string) ([]GoldenResult, error) {
	gf, err := loadGolden(path)
	if err != nil {
		return nil, err
	}
	pinned := make(map[string]GoldenVector, len(gf.Vectors))
	for _, v := range gf.Vectors {
		pinned[v.Name] = v
	}

	var results []GoldenResult
	current := GoldenCases()
	seen := make(map[string]bool, len(current))
	for _, c := range current {
		seen[c.Name] = true
		res := GoldenResult{Name: c.Name, PRNG: c.PRNG}
		v, ok := pinned[c.Name]
		switch {
		case !ok:
			res.Err = "case not in golden file — record it"
		case v.GoldenCase != c:
			res.Err = fmt.Sprintf("pinned parameters %+v diverge from current case %+v", v.GoldenCase, c)
		default:
			res.SHA256 = v.SHA256
			res.Err = verifyVector(v, &res)
			res.Pass = res.Err == ""
		}
		results = append(results, res)
	}
	for _, v := range gf.Vectors {
		if !seen[v.Name] {
			results = append(results, GoldenResult{
				Name: v.Name, PRNG: v.PRNG, SHA256: v.SHA256,
				Err: "stale vector: no current case — re-record the golden file",
			})
		}
	}
	return results, nil
}

// verifyVector replays v under each available backend, recording the
// backends that matched in res, and returns the first mismatch ("" when
// every replay matches).
func verifyVector(v GoldenVector, res *GoldenResult) string {
	for _, b := range append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...) {
		restore, err := dispatch.Force(b)
		if err != nil {
			return err.Error()
		}
		msg := verifyUnderActive(v)
		restore()
		if msg != "" {
			return fmt.Sprintf("backend %s: %s", b, msg)
		}
		res.Backends = append(res.Backends, b.String())
	}
	res.Widths, res.DepthsVerified = GoldenWidths, GoldenDepths
	return ""
}

// verifyUnderActive replays v at every width and depth on the active
// backend.
func verifyUnderActive(v GoldenVector) string {
	type replay struct {
		kind string
		w    int
	}
	var replays []replay
	for _, w := range GoldenWidths {
		replays = append(replays, replay{v.Kind, w})
	}
	if v.Kind == "compiled" {
		replays = append(replays, replay{"interp", sampler.NativeWidth()})
	}
	for _, r := range replays {
		for _, depth := range GoldenDepths {
			stream, err := goldenStream(v.GoldenCase, r.kind, r.w, depth)
			if err != nil {
				return err.Error()
			}
			if got := hashSamples(stream); got != v.SHA256 {
				return fmt.Sprintf("%s w=%d depth %d stream digest %s != pinned %s (head now %v, pinned %v)",
					r.kind, r.w, depth, got[:16], v.SHA256[:16], stream[:min(8, len(stream))], v.Head)
			}
		}
	}
	return ""
}
