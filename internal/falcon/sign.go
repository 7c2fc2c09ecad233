package falcon

import (
	"errors"
	"fmt"
	"math"

	"ctgauss/internal/fft"
	"ctgauss/internal/prng"
	"ctgauss/internal/sampler"
)

// Signature is a Falcon signature: the salt and the transmitted half s1
// (the spec's s2); verification recomputes s0 = c − s1·h mod q.
type Signature struct {
	Salt []byte
	S1   []int16
}

// Signer holds per-instance signing state: the key, the SamplerZ
// backend (a rejection sampler over a fixed base, or the convolution
// layer), a PRNG for salts, and the scratch arena every Sign works in.
// A Signer is not safe for concurrent use; SignerPool shards it.
type Signer struct {
	sk      *PrivateKey
	zs      zSampler
	salt    *prng.BitReader
	scratch *signScratch
	// Attempts counts signing attempts, the first of every Sign
	// included: a Sign that needs no norm-rejection restart adds 1
	// (diagnostics).
	Attempts uint64
}

// signScratch is a Signer's arena: every buffer one Sign needs, sized
// once from Params.N and reused across attempts and calls, so signing
// allocates nothing but the returned Signature.
type signScratch struct {
	salt [SaltLen]byte
	c    []uint32     // hashed point c
	cf   []float64    // c as floats; then s0 and s1 before rounding
	cFFT []complex128 // FFT(c)
	// t0, t1 hold the target (c, 0)·B⁻¹, then the Fourier images of
	// s0 and s1; z0, z1 the sampled lattice point.
	t0, t1, z0, z1 []complex128
	tmp            []complex128 // ffSampling recursion (2N); InvFFT scratch
	s0, s1         []int16
}

func newSignScratch(n int) *signScratch {
	cx := make([]complex128, 7*n)
	ints := make([]int16, 2*n)
	return &signScratch{
		c:    make([]uint32, n),
		cf:   make([]float64, n),
		cFFT: cx[:n],
		t0:   cx[n : 2*n],
		t1:   cx[2*n : 3*n],
		z0:   cx[3*n : 4*n],
		z1:   cx[4*n : 5*n],
		tmp:  cx[5*n:],
		s0:   ints[:n],
		s1:   ints[n:],
	}
}

// NewSigner builds a signer.  base is the discrete Gaussian base sampler
// (σ must be SigmaBase = 2); src supplies salts and the SamplerZ rejection
// randomness.
func NewSigner(sk *PrivateKey, base sampler.Sampler, src prng.Source) (*Signer, error) {
	bits := prng.NewBitReader(src)
	return newSignerWithZ(sk, newSamplerZ(base, bits, sk.Params.SigmaMin), bits)
}

// newSignerWithZ wires a signer over an explicit SamplerZ backend.
func newSignerWithZ(sk *PrivateKey, zs zSampler, salt *prng.BitReader) (*Signer, error) {
	if !sk.ready {
		if err := sk.precompute(); err != nil {
			return nil, err
		}
	}
	return &Signer{sk: sk, zs: zs, salt: salt, scratch: newSignScratch(sk.Params.N)}, nil
}

// BaseSampler exposes the base sampler (for bit-count statistics) of a
// rejection-backed signer; convolve-backed signers return nil (their
// bit ledger lives on the convolution layer).
func (s *Signer) BaseSampler() sampler.Sampler {
	if zs, ok := s.zs.(*samplerZState); ok {
		return zs.base
	}
	return nil
}

// ErrSignFailed is returned when no short-enough signature was found in
// the attempt budget.
var ErrSignFailed = errors.New("falcon: signing failed to find a short vector")

// Sign produces a signature for msg.  It works entirely in the
// signer's scratch arena: the returned Signature is the only allocation,
// and it never aliases the arena.
func (s *Signer) Sign(msg []byte) (*Signature, error) {
	sc := s.scratch
	b := &s.sk.bFFT // [[g, −f], [G, −F]]
	g, negf, G, negF := b[0][0], b[0][1], b[1][0], b[1][1]
	qInv := 1.0 / float64(Q)
	for attempt := 0; attempt < 64; attempt++ {
		s.Attempts++
		s.salt.Bytes(sc.salt[:])
		hashToPoint(sc.c, sc.salt[:], msg)
		for i, v := range sc.c {
			sc.cf[i] = float64(v)
		}
		fft.FFTInto(sc.cFFT, sc.cf)

		// t = (c, 0)·B⁻¹ = (c⊛(−F)/q, c⊛f/q).
		for j, c := range sc.cFFT {
			sc.t0[j] = c * negF[j] * complex(qInv, 0)
			sc.t1[j] = c * -negf[j] * complex(qInv, 0)
		}

		ffSampling(sc.z0, sc.z1, sc.t0, sc.t1, s.sk.tree, s.zs, sc.tmp)

		// s = (t − z)·B computed directly: s0 = c − (z0⊛g + z1⊛G),
		// s1 = z0⊛f + z1⊛F; all integer vectors, recovered by rounding.
		for j, c := range sc.cFFT {
			z0, z1 := sc.z0[j], sc.z1[j]
			sc.t0[j] = c - (z0*g[j] + z1*G[j])
			sc.t1[j] = z0*-negf[j] + z1*-negF[j]
		}
		fft.InvFFTInto(sc.cf, sc.t0, sc.tmp)
		ok0 := roundVec(sc.s0, sc.cf)
		fft.InvFFTInto(sc.cf, sc.t1, sc.tmp)
		if !ok0 || !roundVec(sc.s1, sc.cf) {
			continue
		}
		var norm int64
		for i, v := range sc.s0 {
			norm += int64(v)*int64(v) + int64(sc.s1[i])*int64(sc.s1[i])
		}
		if norm > s.sk.Params.BoundSq || norm == 0 {
			continue
		}
		return &Signature{
			Salt: append([]byte(nil), sc.salt[:]...),
			S1:   append([]int16(nil), sc.s1...),
		}, nil
	}
	return nil, ErrSignFailed
}

// roundVec rounds the near-integer floats v into dst, rejecting
// implausible magnitudes (defence against float blow-ups).
func roundVec(dst []int16, v []float64) bool {
	for i, x := range v {
		r := math.Round(x)
		if math.Abs(x-r) > 0.4 || math.Abs(r) > 32000 {
			return false
		}
		dst[i] = int16(r)
	}
	return true
}

// SampleStats reports SamplerZ acceptance statistics.
func (s *Signer) SampleStats() string {
	accepted, rejected := s.zs.acceptStats()
	total := accepted + rejected
	if total == 0 {
		return "no samples"
	}
	return fmt.Sprintf("accept rate %.1f%% (%d of %d)",
		100*float64(accepted)/float64(total), accepted, total)
}
