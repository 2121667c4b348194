//go:build !purego

package core

func init() {
	if hasAVX2() {
		vectorKernels = &blockKernels{sumRows: sumRowsAVX2, transpose: transposeAVX2, sink: sinkAVX2}
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID.1 reports OSXSAVE and AVX,
// XCR0 has the SSE and AVX state bits, and CPUID.(7,0) reports AVX2.
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The AVX2 bodies of the leaf kernels (blockKernels).

//go:noescape
func sumRowsAVX2(dst, src []float64, stride int, f []float64, at []int32)

//go:noescape
func transposeAVX2(ut, u []float64, mo, r0, r1 int)

//go:noescape
func sinkAVX2(t, row, mirror []float64, stride int, fp, dx []float64, c, dp, eps, tol float64) (moved uint64, diff float64)
