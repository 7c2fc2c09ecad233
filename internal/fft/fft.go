// Package fft implements the negacyclic complex FFT over ℝ[x]/(x^N+1)
// used by Falcon's keygen, LDL* tree construction and fast Fourier
// sampling.  A polynomial f of degree < N is represented in the Fourier
// domain by its evaluations at the N odd 2N-th roots of unity
// ζ_j = exp(iπ(2j+1)/N); split/merge move between a ring of size N and two
// rings of size N/2 entirely in the Fourier domain, which is what
// ffSampling traverses.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// maxLogN bounds the ring sizes with a root table: N ≤ 2^maxLogN.
const maxLogN = 16

// table holds one ring size's precomputed constants.
type table struct {
	roots []complex128 // ζ_j = exp(iπ(2j+1)/N), j < N
	invZ2 []complex128 // 1/(2ζ_j), j < N/2: Split's odd-half factor
}

// tabs holds one lazily built table per log₂ N; each is written once
// under its sync.Once and read-only afterwards.
var tabs [maxLogN + 1]struct {
	once sync.Once
	t    table
}

// logOf returns log₂ n, panicking unless n is a power of two with a
// root table.
func logOf(n int) int {
	if n <= 0 || n&(n-1) != 0 || n > 1<<maxLogN {
		panic(fmt.Sprintf("fft: size %d is not a power of two in [1, 2^%d]", n, maxLogN))
	}
	return bits.TrailingZeros(uint(n))
}

// tab returns the root table for ring size n.
func tab(n int) *table {
	logn := logOf(n)
	e := &tabs[logn]
	e.once.Do(func() {
		e.t.roots = make([]complex128, n)
		for j := range e.t.roots {
			theta := math.Pi * float64(2*j+1) / float64(n)
			e.t.roots[j] = cmplx.Exp(complex(0, theta))
		}
		e.t.invZ2 = make([]complex128, n/2)
		for j := range e.t.invZ2 {
			e.t.invZ2[j] = 1 / (2 * e.t.roots[j])
		}
	})
	return &e.t
}

// Roots returns the N evaluation points ζ_j for ring size N (power of
// two).  The slice is shared: callers must not modify it.
func Roots(n int) []complex128 { return tab(n).roots }

// bitrev returns the log₂ n-bit reversal of i: the leaf position of
// coefficient i in the even/odd recursion FFT and InvFFT unroll.
func bitrev(i, logn int) int {
	return int(bits.Reverse(uint(i)) >> (bits.UintSize - logn))
}

// FFTInto writes the Fourier image of the real-coefficient polynomial f
// into dst (both of length N).  It is the even/odd recursion f ↦
// Merge(FFT(f_even), FFT(f_odd)) unrolled in place: coefficients are
// laid out in bit-reversed order, then merged bottom-up, level by
// level, with the same operations the recursion performs.
func FFTInto(dst []complex128, f []float64) {
	n := len(f)
	logn := logOf(n)
	dst = dst[:n]
	for i := range dst {
		dst[i] = complex(f[bitrev(i, logn)], 0)
	}
	for m := 2; m <= n; m <<= 1 {
		z := tab(m).roots
		for s := 0; s < n; s += m {
			merge(dst[s:s+m], dst[s:s+m/2], dst[s+m/2:s+m], z)
		}
	}
}

// InvFFTInto interpolates the Fourier-domain vector F back to real
// coefficients in dst (both of length N), discarding the imaginary
// parts (rounding noise).  tmp (length ≥ N) is scratch; F is left
// intact.  It is the recursion F ↦ interleave(InvFFT(Fe), InvFFT(Fo))
// with (Fe, Fo) = Split(F), unrolled top-down in place.
func InvFFTInto(dst []float64, F, tmp []complex128) {
	n := len(F)
	logn := logOf(n)
	tmp = tmp[:n]
	copy(tmp, F)
	for m := n; m >= 2; m >>= 1 {
		iz := tab(m).invZ2
		for s := 0; s < n; s += m {
			split(tmp[s:s+m/2], tmp[s+m/2:s+m], tmp[s:s+m], iz)
		}
	}
	for i, v := range tmp {
		dst[bitrev(i, logn)] = real(v)
	}
}

// SplitInto maps F ∈ FFT(ring N) to (fe, fo) ∈ FFT(ring N/2)²: the
// Fourier images of the even and odd half polynomials with
// f = fe(x²) + x·fo(x²).  fe and fo (length N/2) may be exactly the two
// halves of F, making the split in place; any other overlap is invalid.
func SplitInto(fe, fo, F []complex128) { split(fe, fo, F, tab(len(F)).invZ2) }

// MergeInto is the inverse of SplitInto: it writes into F (length N)
// the vector whose split is (fe, fo).  As with SplitInto, fe and fo may
// be exactly the two halves of F.
func MergeInto(F, fe, fo []complex128) { merge(F, fe, fo, tab(len(F)).roots) }

// split is SplitInto with the ring-N table iz = 1/(2ζ_j) passed in, so
// the unrolled transforms look it up once per level, not per block.
func split(fe, fo, F, iz []complex128) {
	h := len(F) / 2
	for j := 0; j < h; j++ {
		a, b := F[j], F[j+h]
		sum := a + b
		fe[j] = complex(real(sum)/2, imag(sum)/2) // exact, unlike complex division
		fo[j] = (a - b) * iz[j]
	}
}

// merge is MergeInto with the ring-N roots z passed in.
func merge(F, fe, fo, z []complex128) {
	h := len(F) / 2
	for j := 0; j < h; j++ {
		a, t := fe[j], z[j]*fo[j]
		F[j] = a + t
		F[j+h] = a - t
	}
}

// FFT evaluates the real-coefficient polynomial f (length N) at the ζ_j
// and returns the Fourier-domain vector.
func FFT(f []float64) []complex128 {
	out := make([]complex128, len(f))
	FFTInto(out, f)
	return out
}

// InvFFT interpolates a Fourier-domain vector back to real coefficients.
// The imaginary parts (rounding noise) are discarded.
func InvFFT(F []complex128) []float64 {
	out := make([]float64, len(F))
	InvFFTInto(out, F, make([]complex128, len(F)))
	return out
}

// Split is SplitInto into fresh vectors.
func Split(F []complex128) (fe, fo []complex128) {
	fe = make([]complex128, len(F)/2)
	fo = make([]complex128, len(F)/2)
	SplitInto(fe, fo, F)
	return fe, fo
}

// Merge is MergeInto into a fresh vector: the inverse of Split.
func Merge(fe, fo []complex128) []complex128 {
	F := make([]complex128, 2*len(fe))
	MergeInto(F, fe, fo)
	return F
}

// Mul returns the pointwise product (ring multiplication in FFT domain).
func Mul(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Add returns the pointwise sum.
func Add(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns the pointwise difference a−b.
func Sub(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Div returns the pointwise quotient a/b.
func Div(a, b []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// Adj returns the Fourier image of the ring adjoint f*(x) = f(1/x): the
// complex conjugate pointwise.
func Adj(a []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = cmplx.Conj(a[i])
	}
	return out
}

// Scale multiplies pointwise by a real scalar.
func Scale(a []complex128, s float64) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] * complex(s, 0)
	}
	return out
}
