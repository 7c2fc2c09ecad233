package falcon

import "ctgauss/internal/prng"

// shakeRate is SHAKE256's rate in bytes: hashToPoint squeezes one rate
// block at a time.  It is even, so no 16-bit chunk straddles two blocks.
const shakeRate = 136

// hashToPoint maps salt‖message to a uniform c ∈ Z_q^N (N = len(out))
// with SHAKE256, taking 16-bit big-endian chunks and rejecting values
// ≥ 5·q to avoid modulo bias (the spec's HashToPoint).  It writes c into
// out and allocates nothing.
func hashToPoint(out []uint32, salt, msg []byte) {
	var sh prng.SHAKE256
	sh.Absorb(salt)
	sh.Absorb(msg)
	var buf [shakeRate]byte
	off := len(buf)
	const limit = 5 * Q // 61445 < 65536
	for i := 0; i < len(out); {
		if off == len(buf) {
			sh.Fill(buf[:])
			off = 0
		}
		t := uint32(buf[off])<<8 | uint32(buf[off+1])
		off += 2
		if t < limit {
			out[i] = t % Q
			i++
		}
	}
}
