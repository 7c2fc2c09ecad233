package falcon

import (
	"fmt"
	"math"

	"ctgauss/internal/fft"
)

// treeNode is one node of the LDL* (Falcon) tree.  Internal nodes hold the
// Fourier-domain L10 vector of their 2×2 LDL decomposition; leaves hold
// the standard deviation σ' = σ/√d for the two scalar Gaussians sampled at
// the recursion floor.
type treeNode struct {
	value       []complex128 // internal: l = G10/G00 (FFT, length n)
	left, right *treeNode
	leafSigma   float64 // valid when left == right == nil
}

func (t *treeNode) isLeaf() bool { return t.left == nil && t.right == nil }

// ffLDL recursively factors the Gram matrix [[g00, g01],[adj(g01), g11]]
// (rings of size len(g00)) into the Falcon tree.
func ffLDL(g00, g01, g11 []complex128, sigma float64) (*treeNode, error) {
	n := len(g00)
	// l = G10/G00 with G10 = adj(g01); d11 = g11 − l·adj(l)·g00.
	l := make([]complex128, n)
	d11 := make([]complex128, n)
	for j := 0; j < n; j++ {
		den := real(g00[j])
		if den <= 0 || math.IsNaN(den) {
			return nil, fmt.Errorf("falcon: non-positive Gram diagonal (%g) in ffLDL", den)
		}
		l[j] = conj(g01[j]) / complex(den, 0)
		d11[j] = g11[j] - l[j]*conj(l[j])*g00[j]
	}
	node := &treeNode{value: l}
	if n == 1 {
		sl, err := leafFrom(real(g00[0]), sigma)
		if err != nil {
			return nil, err
		}
		sr, err := leafFrom(real(d11[0]), sigma)
		if err != nil {
			return nil, err
		}
		node.left, node.right = sl, sr
		return node, nil
	}
	d0, d1 := fft.Split(g00)
	left, err := ffLDL(d0, d1, cloneVec(d0), sigma)
	if err != nil {
		return nil, err
	}
	e0, e1 := fft.Split(d11)
	right, err := ffLDL(e0, e1, cloneVec(e0), sigma)
	if err != nil {
		return nil, err
	}
	node.left, node.right = left, right
	return node, nil
}

func leafFrom(d, sigma float64) (*treeNode, error) {
	if d <= 0 || math.IsNaN(d) {
		return nil, fmt.Errorf("falcon: non-positive leaf diagonal %g", d)
	}
	s := sigma / math.Sqrt(d)
	if s > SigmaBase {
		return nil, fmt.Errorf("falcon: leaf σ' = %.4f exceeds base sampler σ = %g", s, SigmaBase)
	}
	return &treeNode{leafSigma: s}, nil
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func cloneVec(v []complex128) []complex128 {
	return append([]complex128(nil), v...)
}

// leafSigmas collects every leaf σ' (diagnostics and tests).
func (t *treeNode) leafSigmas(out []float64) []float64 {
	if t.isLeaf() {
		return append(out, t.leafSigma)
	}
	out = t.left.leafSigmas(out)
	return t.right.leafSigmas(out)
}

// ffSampling draws (z0, z1) ≈ (t0, t1) jointly Gaussian over the lattice
// described by the tree: Falcon's fast Fourier nearest-plane analogue.
// t0, t1, z0 and z1 are Fourier-domain vectors of one length N; z0 and
// z1 must not overlap t0, t1 or each other.  tmp (length ≥ 2N) is the
// recursion's scratch, laid out like the reference ffSampling_fft's:
// tmp[:N] receives the child call's two half-size outputs and tmp[N:] is
// handed down as the child's own scratch.  z1 doubles as the split of
// t1, and z0 as the split of t0 + (t1 − z1)·L, before each is
// overwritten by the merge of its child's result.  Nothing is allocated.
func ffSampling(z0, z1, t0, t1 []complex128, node *treeNode, zs zSampler, tmp []complex128) {
	n := len(t0)
	if n == 1 {
		zv1 := zs.sample(real(t1[0]), node.right.leafSigma)
		t0p := t0[0] + (t1[0]-complex(zv1, 0))*node.value[0]
		zv0 := zs.sample(real(t0p), node.left.leafSigma)
		z0[0], z1[0] = complex(zv0, 0), complex(zv1, 0)
		return
	}
	hn := n / 2
	fft.SplitInto(z1[:hn], z1[hn:n], t1)
	ffSampling(tmp[:hn], tmp[hn:n], z1[:hn], z1[hn:n], node.right, zs, tmp[n:])
	fft.MergeInto(z1, tmp[:hn], tmp[hn:n])

	l := node.value
	for j := 0; j < n; j++ {
		tmp[j] = t0[j] + (t1[j]-z1[j])*l[j]
	}
	fft.SplitInto(z0[:hn], z0[hn:n], tmp[:n])
	ffSampling(tmp[:hn], tmp[hn:n], z0[:hn], z0[hn:n], node.left, zs, tmp[n:])
	fft.MergeInto(z0, tmp[:hn], tmp[hn:n])
}
