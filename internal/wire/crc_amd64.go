package wire

// ieeeVPCLMUL is the vector kernel (crc_amd64.s).
//
//go:noescape
func ieeeVPCLMUL(crc uint32, p []byte) uint32

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xcr0() uint32

// vpclmulSupported reports whether this CPU has AVX-512 F and VL and
// VPCLMULQDQ, and the operating system saves the ZMM state, which together
// let ieeeVPCLMUL run.
func vpclmulSupported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, pclmulqdq = 1 << 27, 1 << 1
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&pclmulqdq == 0 {
		return false
	}
	// XCR0: SSE, AVX, opmask, ZMM0-15 upper halves, ZMM16-31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512vl, vpclmulqdq = 1 << 16, 1 << 31, 1 << 10
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512vl != 0 && ecx&vpclmulqdq != 0
}
