package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

func randomPoly(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(rng.Intn(41) - 20)
	}
	return f
}

// naive negacyclic multiplication in coefficient domain.
func negacyclicMul(a, b []float64) []float64 {
	n := len(a)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k := i + j
			v := a[i] * b[j]
			if k >= n {
				out[k-n] -= v
			} else {
				out[k] += v
			}
		}
	}
	return out
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 512, 1024} {
		f := randomPoly(rng, n)
		got := InvFFT(FFT(f))
		if d := maxDiff(f, got); d > 1e-8 {
			t.Fatalf("n=%d: roundtrip error %g", n, d)
		}
	}
}

func TestFFTMulMatchesNegacyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 64, 256} {
		a := randomPoly(rng, n)
		b := randomPoly(rng, n)
		want := negacyclicMul(a, b)
		got := InvFFT(Mul(FFT(a), FFT(b)))
		if d := maxDiff(want, got); d > 1e-6*float64(n) {
			t.Fatalf("n=%d: mul error %g", n, d)
		}
	}
}

func TestSplitMergeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	F := FFT(randomPoly(rng, 64))
	fe, fo := Split(F)
	back := Merge(fe, fo)
	for i := range F {
		if d := F[i] - back[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("split/merge not inverse at %d", i)
		}
	}
}

func TestSplitHalvesAreFFTOfHalfPolys(t *testing.T) {
	// f(x) = fe(x²) + x·fo(x²); Split(FFT(f)) must equal FFT(fe), FFT(fo).
	rng := rand.New(rand.NewSource(4))
	n := 32
	f := randomPoly(rng, n)
	fe := make([]float64, n/2)
	fo := make([]float64, n/2)
	for i := 0; i < n/2; i++ {
		fe[i] = f[2*i]
		fo[i] = f[2*i+1]
	}
	se, so := Split(FFT(f))
	we, wo := FFT(fe), FFT(fo)
	for i := 0; i < n/2; i++ {
		if d := se[i] - we[i]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("even half mismatch at %d", i)
		}
		if d := so[i] - wo[i]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("odd half mismatch at %d", i)
		}
	}
}

func TestAdjIsRingAdjoint(t *testing.T) {
	// adj(f)(x) = f0 − f_{n-1}x − … − f1 x^{n-1} in the negacyclic ring.
	rng := rand.New(rand.NewSource(5))
	n := 16
	f := randomPoly(rng, n)
	adj := make([]float64, n)
	adj[0] = f[0]
	for i := 1; i < n; i++ {
		adj[i] = -f[n-i]
	}
	got := InvFFT(Adj(FFT(f)))
	if d := maxDiff(adj, got); d > 1e-8 {
		t.Fatalf("adjoint mismatch: %g", d)
	}
}

func TestAddSubDivScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 8
	a, b := randomPoly(rng, n), randomPoly(rng, n)
	b[0] += 100 // keep b away from roots of zero in FFT domain
	A, B := FFT(a), FFT(b)
	sum := InvFFT(Add(A, B))
	for i := range a {
		if math.Abs(sum[i]-(a[i]+b[i])) > 1e-8 {
			t.Fatal("Add wrong")
		}
	}
	diff := InvFFT(Sub(A, B))
	for i := range a {
		if math.Abs(diff[i]-(a[i]-b[i])) > 1e-8 {
			t.Fatal("Sub wrong")
		}
	}
	q := Div(Mul(A, B), B)
	qc := InvFFT(q)
	if d := maxDiff(qc, a); d > 1e-6 {
		t.Fatalf("Div(Mul(a,b),b) != a: %g", d)
	}
	s := InvFFT(Scale(A, 2.5))
	for i := range a {
		if math.Abs(s[i]-2.5*a[i]) > 1e-8 {
			t.Fatal("Scale wrong")
		}
	}
}

func TestRootsPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Roots(3)
}

func TestHermitianSymmetryOfRealFFT(t *testing.T) {
	// For real f, F[n-1-j] = conj(F[j]) (ζ_{n-1-j} = conj(ζ_j)).
	rng := rand.New(rand.NewSource(7))
	n := 16
	F := FFT(randomPoly(rng, n))
	for j := 0; j < n/2; j++ {
		d := F[n-1-j] - complex(real(F[j]), -imag(F[j]))
		if math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("hermitian symmetry broken at %d", j)
		}
	}
}

// The recursive, allocating transforms below are the oracle for the
// in-place ones: they are the package's original formulation, with
// their own root computation and complex division, so the *Into forms
// are checked against an independent implementation.

func oracleRoots(n int) []complex128 {
	r := make([]complex128, n)
	for j := range r {
		r[j] = cmplx.Exp(complex(0, math.Pi*float64(2*j+1)/float64(n)))
	}
	return r
}

func oracleFFT(f []complex128) []complex128 {
	n := len(f)
	if n == 1 {
		return []complex128{f[0]}
	}
	even := make([]complex128, n/2)
	odd := make([]complex128, n/2)
	for i := 0; i < n/2; i++ {
		even[i] = f[2*i]
		odd[i] = f[2*i+1]
	}
	return oracleMerge(oracleFFT(even), oracleFFT(odd))
}

func oracleInvFFT(F []complex128) []complex128 {
	n := len(F)
	if n == 1 {
		return []complex128{F[0]}
	}
	fe, fo := oracleSplit(F)
	even, odd := oracleInvFFT(fe), oracleInvFFT(fo)
	out := make([]complex128, n)
	for i := 0; i < n/2; i++ {
		out[2*i] = even[i]
		out[2*i+1] = odd[i]
	}
	return out
}

func oracleSplit(F []complex128) (fe, fo []complex128) {
	n := len(F)
	z := oracleRoots(n)
	fe = make([]complex128, n/2)
	fo = make([]complex128, n/2)
	for j := 0; j < n/2; j++ {
		a, b := F[j], F[j+n/2]
		fe[j] = (a + b) / 2
		fo[j] = (a - b) / (2 * z[j])
	}
	return fe, fo
}

func oracleMerge(fe, fo []complex128) []complex128 {
	n := 2 * len(fe)
	z := oracleRoots(n)
	F := make([]complex128, n)
	for j := 0; j < n/2; j++ {
		F[j] = fe[j] + z[j]*fo[j]
		F[j+n/2] = fe[j] - z[j]*fo[j]
	}
	return F
}

func toComplex(f []float64) []complex128 {
	c := make([]complex128, len(f))
	for i, v := range f {
		c[i] = complex(v, 0)
	}
	return c
}

func maxCDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestIntoFormsMatchOracle checks FFTInto, InvFFTInto, SplitInto and
// MergeInto against the recursive oracle at every size 1…1024.  One
// InvFFTInto scratch buffer serves every size, and the split/merge
// round trip also runs in place on the two halves of one buffer.
func TestIntoFormsMatchOracle(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(8))
	tmp := make([]complex128, 1024)
	for n := 1; n <= 1024; n *= 2 {
		f := randomPoly(rng, n)
		F := make([]complex128, n)
		FFTInto(F, f)
		if d := maxCDiff(F, oracleFFT(toComplex(f))); d > tol {
			t.Fatalf("n=%d: FFTInto off the oracle by %g", n, d)
		}

		// Perturb into a generic (non-Hermitian) vector for the inverse.
		for i := range F {
			F[i] += complex(0, float64(rng.Intn(7)-3))
		}
		orig := append([]complex128(nil), F...)
		got := make([]float64, n)
		for i := range tmp {
			tmp[i] = complex(math.NaN(), math.NaN()) // stale scratch must not leak
		}
		InvFFTInto(got, F, tmp)
		want := oracleInvFFT(F)
		for i := range got {
			if d := math.Abs(got[i] - real(want[i])); d > tol {
				t.Fatalf("n=%d: InvFFTInto coefficient %d off the oracle by %g", n, i, d)
			}
		}
		if maxCDiff(F, orig) != 0 {
			t.Fatalf("n=%d: InvFFTInto modified its input", n)
		}
		if n == 1 {
			continue
		}

		fe, fo := make([]complex128, n/2), make([]complex128, n/2)
		SplitInto(fe, fo, F)
		we, wo := oracleSplit(F)
		if d := math.Max(maxCDiff(fe, we), maxCDiff(fo, wo)); d > tol {
			t.Fatalf("n=%d: SplitInto off the oracle by %g", n, d)
		}
		M := make([]complex128, n)
		MergeInto(M, fe, fo)
		if d := maxCDiff(M, oracleMerge(fe, fo)); d > tol {
			t.Fatalf("n=%d: MergeInto off the oracle by %g", n, d)
		}

		buf := append([]complex128(nil), F...)
		SplitInto(buf[:n/2], buf[n/2:], buf)
		if maxCDiff(buf[:n/2], fe) != 0 || maxCDiff(buf[n/2:], fo) != 0 {
			t.Fatalf("n=%d: in-place SplitInto differs from out-of-place", n)
		}
		MergeInto(buf, buf[:n/2], buf[n/2:])
		if maxCDiff(buf, M) != 0 {
			t.Fatalf("n=%d: in-place MergeInto differs from out-of-place", n)
		}
	}
}

// TestTablesConcurrentFirstUse builds root tables from many goroutines
// at once (run under -race).  The sizes are above any other test's, so
// this is each table's first use.
func TestTablesConcurrentFirstUse(t *testing.T) {
	sizes := []int{2048, 4096, 8192}
	const goroutines = 8
	got := make([][][]complex128, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, n := range sizes {
				got[g] = append(got[g], Roots(n))
				FFTInto(make([]complex128, n), make([]float64, n))
			}
		}(g)
	}
	wg.Wait()
	for i, n := range sizes {
		want := oracleRoots(n)
		for g := 0; g < goroutines; g++ {
			r := got[g][i]
			if &r[0] != &got[0][i][0] {
				t.Fatalf("n=%d: goroutines saw different tables", n)
			}
		}
		if d := maxCDiff(got[0][i], want); d > 1e-12 {
			t.Fatalf("n=%d: roots off by %g", n, d)
		}
		if iz := tab(n).invZ2; len(iz) != n/2 || cmplx.Abs(iz[0]*2*want[0]-1) > 1e-12 {
			t.Fatalf("n=%d: bad split table", n)
		}
	}
}
