#include "textflag.h"

// Fold constants for CRC-32/IEEE in its bit-reflected form, after Intel's
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ". To fold
// 128 bits D bits forward, the low quadword is multiplied by
// [x^(D+32) mod P]'<<1 (the low quadword of the constant) and the high one by
// [x^(D-32) mod P]'<<1 (its high quadword); ' is bit reflection.
DATA fold2048<>+0(SB)/8, $0x11542778a
DATA fold2048<>+8(SB)/8, $0x1322d1430
GLOBL fold2048<>(SB), RODATA, $16
DATA fold512<>+0(SB)/8, $0x154442bd4
DATA fold512<>+8(SB)/8, $0x1c6e41596
GLOBL fold512<>(SB), RODATA, $16
DATA fold128<>+0(SB)/8, $0x1751997d0
DATA fold128<>+8(SB)/8, $0x0ccaa009e
GLOBL fold128<>(SB), RODATA, $16

// [x^64 mod P]'<<1, which takes the remainder from 96 bits to 64.
DATA fold64<>+0(SB)/8, $0x163cd6124
GLOBL fold64<>(SB), RODATA, $8

// Barrett reduction from 64 bits to 32: P' (low) and mu = [x^64 / P]' (high).
DATA barrett<>+0(SB)/8, $0x1db710641
DATA barrett<>+8(SB)/8, $0x1f7011641
GLOBL barrett<>(SB), RODATA, $16

// func ieeeVPCLMUL(crc uint32, p []byte) uint32
//
// ieeeVPCLMUL extends crc over p without the CRC's pre- and post-inversion.
// len(p) must be at least 256 and a multiple of 16. The body is folded 256
// bytes at a time into four ZMM accumulators (Z0-Z3), which fold into one (Z3),
// whose four 128-bit lanes fold into one (X3), which is reduced to 32 bits.
// X15 and Z16-Z31 are not touched.
TEXT ·ieeeVPCLMUL(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX

	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD     AX, X4      // zeroes the rest of Z4
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        fold4

	VBROADCASTI32X4 fold2048<>(SB), Z8

loop256:
	VPCLMULQDQ $0x00, Z8, Z0, Z4
	VPCLMULQDQ $0x11, Z8, Z0, Z0
	VPCLMULQDQ $0x00, Z8, Z1, Z5
	VPCLMULQDQ $0x11, Z8, Z1, Z1
	VPCLMULQDQ $0x00, Z8, Z2, Z6
	VPCLMULQDQ $0x11, Z8, Z2, Z2
	VPCLMULQDQ $0x00, Z8, Z3, Z7
	VPCLMULQDQ $0x11, Z8, Z3, Z3
	VPTERNLOGD $0x96, (SI), Z4, Z0    // Z0 ^= Z4 ^ next 64 bytes
	VPTERNLOGD $0x96, 64(SI), Z5, Z1
	VPTERNLOGD $0x96, 128(SI), Z6, Z2
	VPTERNLOGD $0x96, 192(SI), Z7, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	CMPQ       CX, $256
	JAE        loop256

fold4:
	// Fold Z0 into Z1, Z1 into Z2 and Z2 into Z3, 64 bytes apart each.
	VBROADCASTI32X4 fold512<>(SB), Z8
	VPCLMULQDQ      $0x00, Z8, Z0, Z4
	VPCLMULQDQ      $0x11, Z8, Z0, Z0
	VPTERNLOGD      $0x96, Z4, Z0, Z1
	VPCLMULQDQ      $0x00, Z8, Z1, Z4
	VPCLMULQDQ      $0x11, Z8, Z1, Z1
	VPTERNLOGD      $0x96, Z4, Z1, Z2
	VPCLMULQDQ      $0x00, Z8, Z2, Z4
	VPCLMULQDQ      $0x11, Z8, Z2, Z2
	VPTERNLOGD      $0x96, Z4, Z2, Z3
	CMPQ            CX, $64
	JB              fold1

loop64:
	VPCLMULQDQ $0x00, Z8, Z3, Z4
	VPCLMULQDQ $0x11, Z8, Z3, Z3
	VPTERNLOGD $0x96, (SI), Z4, Z3
	ADDQ       $64, SI
	SUBQ       $64, CX
	CMPQ       CX, $64
	JAE        loop64

fold1:
	// Fold Z3's four lanes into X3 (its lowest, the earliest bytes), 16
	// bytes apart each.
	VEXTRACTI32X4 $1, Z3, X4
	VEXTRACTI32X4 $2, Z3, X5
	VEXTRACTI32X4 $3, Z3, X6
	VMOVDQU       fold128<>(SB), X8
	VPCLMULQDQ    $0x00, X8, X3, X0
	VPCLMULQDQ    $0x11, X8, X3, X3
	VPTERNLOGD    $0x96, X4, X0, X3
	VPCLMULQDQ    $0x00, X8, X3, X0
	VPCLMULQDQ    $0x11, X8, X3, X3
	VPTERNLOGD    $0x96, X5, X0, X3
	VPCLMULQDQ    $0x00, X8, X3, X0
	VPCLMULQDQ    $0x11, X8, X3, X3
	VPTERNLOGD    $0x96, X6, X0, X3
	CMPQ          CX, $16
	JB            reduce

loop16:
	VPCLMULQDQ $0x00, X8, X3, X0
	VPCLMULQDQ $0x11, X8, X3, X3
	VPTERNLOGD $0x96, (SI), X0, X3
	ADDQ       $16, SI
	SUBQ       $16, CX
	CMPQ       CX, $16
	JAE        loop16

reduce:
	// 128 bits to 96: the low quadword folded 64 bits onto the high one.
	VPCLMULQDQ $0x01, X3, X8, X0
	VPSRLDQ    $8, X3, X3
	VPXOR      X0, X3, X3

	// 96 bits to 64: the low 32 bits folded onto the rest.
	VPCMPEQB X9, X9, X9
	VPSRLQ   $32, X9, X9     // the low 32 bits of each quadword
	VPSRLDQ  $4, X3, X2
	VPAND    X9, X3, X3
	VMOVQ    fold64<>(SB), X0
	VPCLMULQDQ $0x00, X0, X3, X3
	VPXOR    X2, X3, X3

	// Barrett: 64 bits to 32, left in the second doubleword.
	VMOVDQU    barrett<>(SB), X0
	VPAND      X9, X3, X1
	VPCLMULQDQ $0x10, X0, X1, X1
	VPAND      X9, X1, X1
	VPCLMULQDQ $0x00, X0, X1, X1
	VPXOR      X3, X1, X1
	VPEXTRD    $1, X1, AX
	MOVL       AX, ret+32(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
