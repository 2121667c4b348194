package core

// The block path's leaf kernels (pullKernel.strip). Each has two bodies
// with one layout: the Go loops below, which every GOARCH builds, and an
// AVX2 body (kernel_amd64.s) that the block path runs instead where the CPU
// has AVX2 and the OS saves its registers. Both bodies sum every cell's
// terms from +0 in the same order and round every product before it is
// added — VMULPD, then VADDPD, never a fused multiply-add, and float64(a*b)
// in Go, which the spec does not let a compiler fuse — so they write the
// same bits, and a run's scores do not depend on which body ran.

// blockKernels is one body of the leaf kernels.
type blockKernels struct {
	// sumRows sets dst[c] = Σ_k f[k]·src[at[k]·stride + c] for c <
	// len(dst), k ascending: the gather U = W·S (src the opposite side's
	// block, stride its width) and the pull T = U·Wᵀ (src the strip's Uᵀ
	// from its first computed row, stride stripWidth).
	sumRows func(dst, src []float64, stride int, f []float64, at []int32)
	// transpose sets ut[j·stripWidth + r] = u[r·mo + j] for the strip
	// rows r ∈ [r0, r1), both multiples of four, and j < mo.
	transpose func(ut, u []float64, mo, r0, r1 int)
	// sink scales the cells t of len(t) consecutive strip rows against
	// node p — v = fp[i]·t[i], or c·t[i]/(dx[i]·dp) for an empty fp —
	// zeroes |v| < eps, and writes v to row[i] (row p's half) and
	// mirror[i·stride] (the rows' halves). It returns the largest
	// |v − row[i]| before the write and bit i set where that exceeds tol.
	sink func(t, row, mirror []float64, stride int, fp, dx []float64, c, dp, eps, tol float64) (moved uint64, diff float64)
}

// goKernels is the Go body, run where no vector body is.
var goKernels = blockKernels{sumRows: sumRowsGo, transpose: transposeGo, sink: sinkGo}

// vectorKernels is the AVX2 body where this CPU runs it (set at start-up
// by kernel_amd64.go), nil elsewhere and under the purego build tag.
var vectorKernels *blockKernels

// kernels returns the body the block path runs.
func kernels() *blockKernels {
	if vectorKernels != nil {
		return vectorKernels
	}
	return &goKernels
}

// The Uᵀ strip's rows are stripWidth cells wide, and the AVX2 transpose
// assumes 64 (a 512-byte row): these fail to compile if it changes.
var (
	_ [stripWidth - 64]struct{}
	_ [64 - stripWidth]struct{}
)

func sumRowsGo(dst, src []float64, stride int, f []float64, at []int32) {
	clear(dst)
	n := len(dst)
	k := 0
	for ; k+4 <= len(f); k += 4 {
		f0, f1, f2, f3 := f[k], f[k+1], f[k+2], f[k+3]
		r0 := src[int(at[k])*stride:][:n]
		r1 := src[int(at[k+1])*stride:][:n]
		r2 := src[int(at[k+2])*stride:][:n]
		r3 := src[int(at[k+3])*stride:][:n]
		for c := range dst {
			dst[c] = (((dst[c] + float64(f0*r0[c])) + float64(f1*r1[c])) + float64(f2*r2[c])) + float64(f3*r3[c])
		}
	}
	switch f, at := f[k:], at[k:]; len(f) {
	case 3:
		f0, f1, f2 := f[0], f[1], f[2]
		r0 := src[int(at[0])*stride:][:n]
		r1 := src[int(at[1])*stride:][:n]
		r2 := src[int(at[2])*stride:][:n]
		for c := range dst {
			dst[c] = ((dst[c] + float64(f0*r0[c])) + float64(f1*r1[c])) + float64(f2*r2[c])
		}
	case 2:
		f0, f1 := f[0], f[1]
		r0, r1 := src[int(at[0])*stride:][:n], src[int(at[1])*stride:][:n]
		for c := range dst {
			dst[c] = (dst[c] + float64(f0*r0[c])) + float64(f1*r1[c])
		}
	case 1:
		f0, r0 := f[0], src[int(at[0])*stride:][:n]
		for c := range dst {
			dst[c] += float64(f0 * r0[c])
		}
	}
}

func transposeGo(ut, u []float64, mo, r0, r1 int) {
	for r := r0; r < r1; r += 4 {
		a, b, c, d := u[r*mo:][:mo], u[(r+1)*mo:][:mo], u[(r+2)*mo:][:mo], u[(r+3)*mo:][:mo]
		for j := range a {
			t := ut[j*stripWidth+r:][:4]
			t[0], t[1], t[2], t[3] = a[j], b[j], c[j], d[j]
		}
	}
}

func sinkGo(t, row, mirror []float64, stride int, fp, dx []float64, c, dp, eps, tol float64) (moved uint64, diff float64) {
	if len(t) == 0 {
		return 0, 0
	}
	row, mirror = row[:len(t)], mirror[:(len(t)-1)*stride+1]
	for i, ti := range t {
		var v float64
		if len(fp) > 0 {
			v = fp[i] * ti
		} else {
			v = c * ti / (dx[i] * dp)
		}
		if v < eps && v > -eps {
			v = 0
		}
		d := v - row[i]
		if d < 0 {
			d = -d
		}
		if d > diff {
			diff = d
		}
		if d > tol {
			moved |= 1 << i
		}
		row[i] = v
		mirror[i*stride] = v
	}
	return moved, diff
}
