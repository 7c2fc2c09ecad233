package prng

import "ctgauss/internal/bitslice/dispatch"

// Multi-block ChaCha20 kernels (chacha_amd64.s).  Each computes
// consecutive blocks of the state in s, block i at counter s[12]+i with
// no carry into s[13], and stores them in block order.

// chachaBlocksAVX512 writes 16 blocks, one per zmm lane.
//
//go:noescape
func chachaBlocksAVX512(s *[16]uint32, out *[16 * 64]byte)

// chachaBlocksAVX2 writes 8 blocks, one per ymm lane.
//
//go:noescape
func chachaBlocksAVX2(s *[16]uint32, out *[8 * 64]byte)

// blocksSIMD fills out with the refillBlocks blocks at s[12]+0 … +15
// using the active vector backend, reporting false when the caller
// should use the portable kernel.  The caller guarantees the counters
// do not cross 2^32.
func blocksSIMD(s *[16]uint32, out *[refillBlocks * 64]byte) bool {
	switch dispatch.Active() {
	case dispatch.AVX512:
		chachaBlocksAVX512(s, out)
	case dispatch.AVX2:
		hi := *s
		hi[12] += 8
		chachaBlocksAVX2(s, (*[8 * 64]byte)(out[:8*64]))
		chachaBlocksAVX2(&hi, (*[8 * 64]byte)(out[8*64:]))
	default:
		return false
	}
	return true
}
