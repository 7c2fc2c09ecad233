package dispatch

// CPU feature probing via raw CPUID/XGETBV (cpu_amd64.s) — the module is
// dependency-free, so no golang.org/x/sys/cpu.

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (extended control register 0): which register state
// the OS saves and restores across context switches.
func xgetbv() (eax, edx uint32)

// XCR0 state-component bits the kernels depend on: the OS must preserve
// xmm+ymm state for AVX2 and additionally the opmask and both zmm banks
// for AVX-512, or the registers are silently corrupted across context
// switches.
const (
	ymmState = 0x6  // XCR0[2:1] = SSE, AVX
	zmmState = 0xe0 // XCR0[7:5] = opmask, ZMM_Hi256, Hi16_ZMM
)

// probe returns the SIMD backends this CPU and OS support, in ascending
// preference order.  Portable is implicit and never included.
func probe() []Backend {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return nil
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return nil
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmState != ymmState {
		return nil
	}
	_, ebx7, _, _ := cpuid(7, 0)
	var out []Backend
	if ebx7&(1<<5) != 0 { // AVX2
		out = append(out, AVX2)
	}
	// The zmm kernels use AVX-512F instructions only (VMOVDQU64,
	// VPTERNLOGQ; ChaCha20's VPROLD, VPUNPCK*, VSHUFI32X4), so F is the
	// sole ISA requirement.
	if ebx7&(1<<16) != 0 && xcr0&zmmState == zmmState { // AVX512F
		out = append(out, AVX512)
	}
	return out
}
