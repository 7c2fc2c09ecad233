//go:build !amd64

package prng

// blocksSIMD has no kernels off amd64; every refill takes the portable
// kernel.
func blocksSIMD(s *[16]uint32, out *[refillBlocks * 64]byte) bool { return false }
