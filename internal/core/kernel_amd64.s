//go:build !purego

#include "textflag.h"

// The AVX2 bodies of the block path's leaf kernels (kernel.go). Every
// product is rounded by its own VMULPD/VMULSD before the VADDPD/VADDSD
// that adds it: no fused multiply-add, so every cell rounds as the Go body
// rounds it.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sumRowsAVX2(dst, src []float64, stride int, f []float64, at []int32)
//
// dst[c] = Σ_k f[k]·src[at[k]·stride + c], each lane summing its terms in
// registers from +0, k ascending: the cells 16 at a time, or 4 at a time
// when there are fewer than 16, or one at a time when fewer than 4. A
// last chunk that would run past the end is moved back to end there: the
// cells it computes again come out the same bits.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), R8
	SHLQ $3, R8               // bytes a src row
	MOVQ f_base+56(FP), R9
	MOVQ f_len+64(FP), R11
	MOVQ at_base+80(FP), R10
	XORQ BX, BX               // c
	CMPQ CX, $16
	JLT  under16

cells16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(BX*8), R12      // &src[c]
	XORQ DX, DX               // k

terms16:
	CMPQ DX, R11
	JGE  store16
	VBROADCASTSD (R9)(DX*8), Y4
	MOVLQSX (R10)(DX*4), R13
	IMULQ R8, R13
	ADDQ  R12, R13            // &src[at[k]·stride + c]
	VMULPD (R13), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R13), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R13), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R13), Y4, Y8
	VADDPD Y8, Y3, Y3
	INCQ DX
	JMP  terms16

store16:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	ADDQ $16, BX
	CMPQ BX, CX
	JGE  sumdone
	LEAQ 16(BX), AX
	CMPQ AX, CX
	JLE  cells16
	LEAQ -16(CX), BX          // the last 16 cells
	JMP  cells16

under16:
	CMPQ CX, $4
	JLT  cells1

cells4:
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(BX*8), R12
	XORQ DX, DX

terms4:
	CMPQ DX, R11
	JGE  store4
	VBROADCASTSD (R9)(DX*8), Y4
	MOVLQSX (R10)(DX*4), R13
	IMULQ R8, R13
	ADDQ  R12, R13
	VMULPD (R13), Y4, Y5
	VADDPD Y5, Y0, Y0
	INCQ DX
	JMP  terms4

store4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JGE  sumdone
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JLE  cells4
	LEAQ -4(CX), BX           // the last 4 cells
	JMP  cells4

cells1:
	CMPQ BX, CX
	JGE  sumdone
	VXORPD X0, X0, X0
	LEAQ (SI)(BX*8), R12
	XORQ DX, DX

terms1:
	CMPQ DX, R11
	JGE  store1
	VMOVSD (R9)(DX*8), X4
	MOVLQSX (R10)(DX*4), R13
	IMULQ R8, R13
	ADDQ  R12, R13
	VMULSD (R13), X4, X5
	VADDSD X5, X0, X0
	INCQ DX
	JMP  terms1

store1:
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  cells1

sumdone:
	VZEROUPPER
	RET

// func transposeAVX2(ut, u []float64, mo, r0, r1 int)
//
// ut[j·64 + r] = u[r·mo + j] for r ∈ [r0, r1) and j < mo: 4 × 4 tiles,
// then the last mo mod 4 columns one cell at a time. r0 and r1 are
// multiples of four; 64 is stripWidth.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-72
	MOVQ ut_base+0(FP), DI
	MOVQ u_base+24(FP), SI
	MOVQ mo+48(FP), R10       // mo
	MOVQ r0+56(FP), BX        // r
	MOVQ r1+64(FP), CX
	MOVQ R10, R9
	SHLQ $3, R9               // bytes a u row
	MOVQ R10, R8
	ANDQ $-4, R8              // the columns the tiles cover

rows4:
	CMPQ BX, CX
	JGE  trdone
	MOVQ BX, R11
	IMULQ R9, R11
	ADDQ SI, R11              // &u[r·mo]
	LEAQ (R11)(R9*1), R12     // row r+1
	LEAQ (R12)(R9*1), R13     // row r+2
	LEAQ (R13)(R9*1), R14     // row r+3
	XORQ DX, DX               // j

tiles:
	CMPQ DX, R8
	JGE  tailcols
	VMOVUPD (R11)(DX*8), Y0   // a0 a1 a2 a3
	VMOVUPD (R12)(DX*8), Y1   // b0 …
	VMOVUPD (R13)(DX*8), Y2   // c0 …
	VMOVUPD (R14)(DX*8), Y3   // d0 …
	VUNPCKLPD Y1, Y0, Y4      // a0 b0 a2 b2
	VUNPCKHPD Y1, Y0, Y5      // a1 b1 a3 b3
	VUNPCKLPD Y3, Y2, Y6      // c0 d0 c2 d2
	VUNPCKHPD Y3, Y2, Y7      // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0 // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y1 // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y2 // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y3 // a3 b3 c3 d3
	MOVQ DX, AX
	SHLQ $9, AX
	LEAQ (AX)(BX*8), AX
	ADDQ DI, AX               // &ut[j·64 + r]
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 512(AX)
	VMOVUPD Y2, 1024(AX)
	VMOVUPD Y3, 1536(AX)
	ADDQ $4, DX
	JMP  tiles

tailcols:
	CMPQ DX, R10
	JGE  nextrows
	MOVQ DX, AX
	SHLQ $9, AX
	LEAQ (AX)(BX*8), AX
	ADDQ DI, AX
	VMOVSD (R11)(DX*8), X0
	VMOVSD X0, (AX)
	VMOVSD (R12)(DX*8), X0
	VMOVSD X0, 8(AX)
	VMOVSD (R13)(DX*8), X0
	VMOVSD X0, 16(AX)
	VMOVSD (R14)(DX*8), X0
	VMOVSD X0, 24(AX)
	INCQ DX
	JMP  tailcols

nextrows:
	ADDQ $4, BX
	JMP  rows4

trdone:
	VZEROUPPER
	RET

// func sinkAVX2(t, row, mirror []float64, stride int, fp, dx []float64, c, dp, eps float64) (diff float64)
//
// Four lanes at a time, then one: v = fp·t (or c·t/(dx·dp) for an empty
// fp), zeroed where −eps < v < eps; d = |v − row|, its maximum kept; v
// stored to row and, one cell at a time, down mirror's stride.
TEXT ·sinkAVX2(SB), NOSPLIT, $0-160
	MOVQ t_base+0(FP), SI
	MOVQ t_len+8(FP), R14     // n
	MOVQ row_base+24(FP), DI
	MOVQ mirror_base+48(FP), R13
	MOVQ stride+72(FP), R9
	SHLQ $3, R9               // bytes between mirror cells
	MOVQ fp_base+80(FP), R10
	MOVQ fp_len+88(FP), R11   // 0: scale by c/(dx·dp)
	MOVQ dx_base+104(FP), R12
	VBROADCASTSD c+128(FP), Y8
	VBROADCASTSD dp+136(FP), Y9
	VBROADCASTSD eps+144(FP), Y10
	VXORPD Y11, Y11, Y11
	VSUBPD Y10, Y11, Y11      // −eps
	VPCMPEQQ Y13, Y13, Y13
	VPSRLQ $1, Y13, Y13       // every bit but the sign
	VXORPD Y14, Y14, Y14      // max |d|
	XORQ BX, BX               // i

lanes4:
	LEAQ 4(BX), DX
	CMPQ DX, R14
	JGT  reduce
	VMOVUPD (SI)(BX*8), Y0
	TESTQ R11, R11
	JZ   plain4
	VMULPD (R10)(BX*8), Y0, Y0
	JMP  prune4

plain4:
	VMULPD Y8, Y0, Y0         // c·t
	VMULPD (R12)(BX*8), Y9, Y1 // dx·dp
	VDIVPD Y1, Y0, Y0

prune4:
	VCMPPD $1, Y10, Y0, Y2    // v < eps
	VCMPPD $1, Y0, Y11, Y3    // −eps < v
	VANDPD Y3, Y2, Y2
	VANDNPD Y0, Y2, Y0
	VSUBPD (DI)(BX*8), Y0, Y1
	VANDPD Y13, Y1, Y1        // d
	VMAXPD Y1, Y14, Y14
	VMOVUPD Y0, (DI)(BX*8)
	VMOVSD X0, (R13)
	VMOVHPD X0, (R13)(R9*1)
	LEAQ (R13)(R9*2), R13
	VEXTRACTF128 $1, Y0, X1
	VMOVSD X1, (R13)
	VMOVHPD X1, (R13)(R9*1)
	LEAQ (R13)(R9*2), R13
	ADDQ $4, BX
	JMP  lanes4

reduce:
	VEXTRACTF128 $1, Y14, X1
	VMAXPD X1, X14, X14
	VUNPCKHPD X14, X14, X1
	VMAXSD X1, X14, X14

lanes1:
	CMPQ BX, R14
	JGE  sinkdone
	VMOVSD (SI)(BX*8), X0
	TESTQ R11, R11
	JZ   plain1
	VMULSD (R10)(BX*8), X0, X0
	JMP  prune1

plain1:
	VMULSD X8, X0, X0
	VMULSD (R12)(BX*8), X9, X1
	VDIVSD X1, X0, X0

prune1:
	VCMPSD $1, X10, X0, X2
	VCMPSD $1, X0, X11, X3
	VANDPD X3, X2, X2
	VANDNPD X0, X2, X0
	VSUBSD (DI)(BX*8), X0, X1
	VANDPD X13, X1, X1
	VMAXSD X1, X14, X14
	VMOVSD X0, (DI)(BX*8)
	VMOVSD X0, (R13)
	ADDQ R9, R13
	INCQ BX
	JMP  lanes1

sinkdone:
	VZEROUPPER
	VMOVSD X14, diff+152(FP)
	RET
