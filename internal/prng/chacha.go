// Package prng provides the pseudorandom generators the paper's
// experiments use: ChaCha20 (the Falcon reference PRNG and the one used in
// Table 1), SHAKE256/Keccak (the generator whose cost dominates in [21]'s
// measurements, §7), and AES-CTR (the platform-specific alternative the
// conclusion mentions).  All are deterministic from a seed so experiments
// are reproducible, and all implement the Source interface.
package prng

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Source is a deterministic stream of pseudorandom bytes.
type Source interface {
	// Fill overwrites p with pseudorandom bytes.
	Fill(p []byte)
	// Name identifies the generator in experiment output.
	Name() string
}

// refillBlocks is how many 64-byte ChaCha20 blocks one refill computes:
// one per lane of a 16-way AVX-512 kernel, two calls of the 8-way AVX2
// kernel, or sixteen scalar blocks.
const refillBlocks = 16

// ChaCha20 is the ChaCha20 block function of RFC 8439 (20 rounds, the
// same key setup and block layout) run as a PRNG, matching the Falcon
// reference implementation's use of ChaCha as its sampler PRNG.  The
// nonce words start at zero and the block counter is 64 bits wide:
// state[12] is its low word and, unlike RFC 8439's 32-bit counter, a
// wrap of state[12] carries into state[13] (nonce word 0).  Every
// kernel reproduces that carry, so the stream is the same on every
// SIMD backend.
//
// Keystream is produced refillBlocks blocks at a time into one buffer
// by whichever kernel internal/bitslice/dispatch has active; Fill
// copies out of it.
type ChaCha20 struct {
	state [16]uint32 // state[12..13] count the next refill's first block
	buf   [refillBlocks * 64]byte
	used  int
}

// newChaCha20 returns a generator at the given key, counter and nonce
// words, with an empty buffer.
func newChaCha20(key *[32]byte, counter uint32, nonce *[12]byte) *ChaCha20 {
	c := &ChaCha20{}
	c.used = len(c.buf)
	c.state[0] = 0x61707865
	c.state[1] = 0x3320646e
	c.state[2] = 0x79622d32
	c.state[3] = 0x6b206574
	for i := 0; i < 8; i++ {
		c.state[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	c.state[12] = counter
	for i := 0; i < 3; i++ {
		c.state[13+i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	return c
}

// NewChaCha20 seeds the generator with a 32-byte key.  Shorter seeds are
// zero-padded; longer seeds are rejected.
func NewChaCha20(seed []byte) (*ChaCha20, error) {
	if len(seed) > 32 {
		return nil, fmt.Errorf("prng: ChaCha20 seed must be at most 32 bytes, got %d", len(seed))
	}
	var key [32]byte
	copy(key[:], seed)
	return newChaCha20(&key, 0, &[12]byte{}), nil
}

// MustChaCha20 is NewChaCha20 for known-good seeds.
func MustChaCha20(seed []byte) *ChaCha20 {
	c, err := NewChaCha20(seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Source.
func (c *ChaCha20) Name() string { return "chacha20" }

// refill computes the next refillBlocks blocks into buf and advances
// the 64-bit block counter past them.
func (c *ChaCha20) refill() {
	// The vector kernels give lane i the counter state[12]+i with no
	// carry, so the one refill whose counters cross 2^32 takes the
	// portable path.  The branch reads the public counter, never the key.
	if c.state[12] > ^uint32(0)-(refillBlocks-1) || !blocksSIMD(&c.state, &c.buf) {
		blocksGeneric(&c.state, &c.buf)
	}
	ctr := uint64(c.state[13])<<32 | uint64(c.state[12]) + refillBlocks
	c.state[12], c.state[13] = uint32(ctr), uint32(ctr>>32)
	c.used = 0
}

// Fill implements Source.
func (c *ChaCha20) Fill(p []byte) {
	for len(p) > 0 {
		if c.used == len(c.buf) {
			c.refill()
		}
		n := copy(p, c.buf[c.used:])
		c.used += n
		p = p[n:]
	}
}

// blocksGeneric is the portable kernel: the refillBlocks blocks at
// 64-bit counters s[12..13]+0 … +15, one scalar block at a time.
func blocksGeneric(s *[16]uint32, out *[refillBlocks * 64]byte) {
	ctr := uint64(s[13])<<32 | uint64(s[12])
	for i := 0; i < refillBlocks; i++ {
		block(s, ctr+uint64(i), (*[64]byte)(out[64*i:]))
	}
}

// block writes the ChaCha20 block of state s at 64-bit counter ctr
// (which replaces s[12..13]) to out.  The state lives in locals so the
// compiler keeps the rounds in registers.
func block(s *[16]uint32, ctr uint64, out *[64]byte) {
	c12, c13 := uint32(ctr), uint32(ctr>>32)
	x0, x1, x2, x3 := s[0], s[1], s[2], s[3]
	x4, x5, x6, x7 := s[4], s[5], s[6], s[7]
	x8, x9, x10, x11 := s[8], s[9], s[10], s[11]
	x12, x13, x14, x15 := c12, c13, s[14], s[15]
	for round := 0; round < 10; round++ {
		x0, x4, x8, x12 = qr(x0, x4, x8, x12)
		x1, x5, x9, x13 = qr(x1, x5, x9, x13)
		x2, x6, x10, x14 = qr(x2, x6, x10, x14)
		x3, x7, x11, x15 = qr(x3, x7, x11, x15)
		x0, x5, x10, x15 = qr(x0, x5, x10, x15)
		x1, x6, x11, x12 = qr(x1, x6, x11, x12)
		x2, x7, x8, x13 = qr(x2, x7, x8, x13)
		x3, x4, x9, x14 = qr(x3, x4, x9, x14)
	}
	le := binary.LittleEndian
	le.PutUint32(out[0:], x0+s[0])
	le.PutUint32(out[4:], x1+s[1])
	le.PutUint32(out[8:], x2+s[2])
	le.PutUint32(out[12:], x3+s[3])
	le.PutUint32(out[16:], x4+s[4])
	le.PutUint32(out[20:], x5+s[5])
	le.PutUint32(out[24:], x6+s[6])
	le.PutUint32(out[28:], x7+s[7])
	le.PutUint32(out[32:], x8+s[8])
	le.PutUint32(out[36:], x9+s[9])
	le.PutUint32(out[40:], x10+s[10])
	le.PutUint32(out[44:], x11+s[11])
	le.PutUint32(out[48:], x12+c12)
	le.PutUint32(out[52:], x13+c13)
	le.PutUint32(out[56:], x14+s[14])
	le.PutUint32(out[60:], x15+s[15])
}

// qr is the ChaCha quarter round; it inlines into block.
func qr(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d = bits.RotateLeft32(d^a, 16)
	c += d
	b = bits.RotateLeft32(b^c, 12)
	a += b
	d = bits.RotateLeft32(d^a, 8)
	c += d
	b = bits.RotateLeft32(b^c, 7)
	return a, b, c, d
}

// KeystreamAt returns the first 64 keystream bytes for the given key,
// counter and nonce — used by the RFC 8439 known-answer tests.  It goes
// through the buffered refill, so the test covers the active kernel.
func KeystreamAt(key [32]byte, counter uint32, nonce [12]byte) [64]byte {
	var out [64]byte
	newChaCha20(&key, counter, &nonce).Fill(out[:])
	return out
}
