package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"simrankpp/internal/clickgraph"
)

// kernelDraw draws leaf-kernel inputs: factors mostly in [0, 1) with 0,
// −0, subnormals and ±1e300 among them, scores in [0, 1] with both ends.
type kernelDraw struct{ r *rand.Rand }

func (d kernelDraw) factor() float64 {
	switch d.r.IntN(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+d.r.IntN(1<<20))
	case 3:
		return []float64{1e300, -1e300}[d.r.IntN(2)]
	}
	return d.r.Float64()
}

func (d kernelDraw) scores(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch d.r.IntN(8) {
		case 0:
		case 1:
			s[i] = 1
		default:
			s[i] = d.r.Float64()
		}
	}
	return s
}

// firstBitDiff returns the first cell where a and b differ in any bit, or
// −1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// FuzzBlockKernels runs each leaf kernel's AVX2 body against its Go body
// on the same inputs and requires the same bits in every cell either may
// write, and in the guard cells around them, which neither may: sumRows
// over 0–12 operands into 0–70 cells (every tail of the 16-, 4- and
// 1-cell loops), the transpose of 0–70 columns over every run of whole
// tiles, and the sink over 0–64 lanes in both scalings, with its largest
// change. Where mode has bit 1, the sink's lanes sit on its bounds: v
// exactly ±eps, and v equal to the cell it overwrites. The committed seeds
// cover every length. It skips where no vector body runs.
func FuzzBlockKernels(f *testing.F) {
	if vectorKernels == nil {
		f.Skip("no AVX2 body on this CPU or build")
	}
	for n := 0; n <= 70; n++ {
		f.Add(uint8(n), uint8(n%13), uint64(n), uint8(n%4))
	}
	f.Fuzz(func(t *testing.T, n8, ops8 uint8, seed uint64, mode uint8) {
		n, nops := int(n8)%71, int(ops8)%13
		d := kernelDraw{rand.New(rand.NewPCG(seed, uint64(n)<<8|uint64(nops)))}
		vec := vectorKernels

		stride, rows := n+d.r.IntN(4), 1+d.r.IntN(6)
		src := d.scores(rows * stride)
		fs, at := make([]float64, nops), make([]int32, nops)
		for k := range fs {
			fs[k], at[k] = d.factor(), int32(d.r.IntN(rows))
		}
		guard := d.scores(n + 2)
		got, want := slices.Clone(guard), slices.Clone(guard)
		vec.sumRows(got[1:n+1], src, stride, fs, at)
		goKernels.sumRows(want[1:n+1], src, stride, fs, at)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("sumRows: %d cells, %d terms: cell %d is %v, Go body %v", n, nops, i-1, got[i], want[i])
		}

		r0 := 4 * d.r.IntN(16)
		r1 := r0 + 4*d.r.IntN((stripWidth-r0)/4+1)
		u, ut := d.scores(stripWidth*n), d.scores(n*stripWidth)
		got, want = slices.Clone(ut), slices.Clone(ut)
		vec.transpose(got, u, n, r0, r1)
		goKernels.transpose(want, u, n, r0, r1)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("transpose: %d columns, rows [%d, %d): cell %d is %v, Go body %v", n, r0, r1, i, got[i], want[i])
		}

		lanes, step := min(n, stripWidth), 1+d.r.IntN(9)
		tv, row := d.scores(lanes), d.scores(lanes)
		c, dp := d.r.Float64(), float64(1+d.r.IntN(20))
		eps := []float64{0, 1e-5, 0.25}[d.r.IntN(3)]
		var fp, dx []float64
		if mode&1 == 1 {
			fp = make([]float64, lanes)
			for i := range fp {
				fp[i] = d.factor()
			}
		} else {
			dx = make([]float64, lanes)
			for i := range dx {
				dx[i] = float64(1 + d.r.IntN(20))
			}
		}
		if mode&2 != 0 {
			c, dp = 1, 1
			for i := range lanes {
				sign := 1.0
				if fp != nil {
					sign = []float64{1, -1}[i%2]
					fp[i] = sign
				} else {
					dx[i] = 1
				}
				switch i % 3 {
				case 0:
					tv[i] = eps
				case 1:
					tv[i], row[i] = 0.75, sign*0.75
				}
			}
		}
		mirror := d.scores(max(lanes-1, 0)*step + 2)
		gr, wr, gm, wm := slices.Clone(row), slices.Clone(row), slices.Clone(mirror), slices.Clone(mirror)
		gd := vec.sink(tv, gr, gm, step, fp, dx, c, dp, eps)
		wd := goKernels.sink(tv, wr, wm, step, fp, dx, c, dp, eps)
		label := fmt.Sprintf("sink: %d lanes, weighted %v, eps %g", lanes, fp != nil, eps)
		if math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("%s: diff %v; Go body %v", label, gd, wd)
		}
		if i := firstBitDiff(gr, wr); i >= 0 {
			t.Fatalf("%s: row cell %d is %v, Go body %v", label, i, gr[i], wr[i])
		}
		if i := firstBitDiff(gm, wm); i >= 0 {
			t.Fatalf("%s: mirror cell %d is %v, Go body %v", label, i, gm[i], wm[i])
		}
	})
}

// BenchmarkBlockKernels times each leaf kernel of the block path, each
// body, in ns per cell it writes, on the production-mode operands of an
// uncut giant (giantGraph: the query pass's 650 rows over the 450-node ad
// block, and the ad pass's 450 over the 650-node query block) and of one
// 65 × 45 cluster of the gated workload's shape: the gather of a strip's
// 64 rows of U, their transpose, and the pull and the sink of the
// component's first strip — each p's cells against the strip's rows below
// it.
func BenchmarkBlockKernels(b *testing.B) {
	type body struct {
		name string
		k    *blockKernels
	}
	bodies := []body{{"go", &goKernels}}
	if vectorKernels != nil {
		bodies = append(bodies, body{"avx2", vectorKernels})
	}
	cb := clickgraph.NewBuilder()
	addUniformCluster(cb, rand.New(rand.NewPCG(1, 1)), "c", 65, 45, 500)
	const B = stripWidth
	for _, shape := range []struct {
		name string
		g    *clickgraph.Graph
	}{{"giant", giantGraph(1)}, {"cluster", cb.Build()}} {
		cfg := productionConfig()
		in := newPassInputs(shape.g, cfg)
		for _, ads := range []bool{false, true} {
			k, idx, opp := pullKernel{thisNbr: in.qNbr, oppNbr: in.aNbr, w: in.qW, ev: in.ev, c: cfg.C1}, in.qIdx, in.aIdx
			if ads {
				k, idx, opp = pullKernel{thisNbr: in.aNbr, oppNbr: in.qNbr, w: in.aW, ev: in.ev, c: cfg.C2}, in.aIdx, in.qIdx
			}
			c := int32(0) // the largest component
			for x := range idx.bounds[1:] {
				if lo, hi := idx.span(int32(x)); hi-lo > int(idx.bounds[c+1]-idx.bounds[c]) {
					c = int32(x)
				}
			}
			lo, hi := idx.span(c)
			olo, ohi := opp.span(c)
			m, mo := hi-lo, ohi-olo
			ops := k.operands(lo, hi, olo, &slabPool[float64]{}, &slabPool[int32]{})
			fac := k.pairFactors(lo, hi, &slabPool[float64]{}, &stripScratch{})
			d := kernelDraw{rand.New(rand.NewPCG(2, 2))}
			S, own := d.scores(mo*mo), d.scores(m*m)
			u, ut, cell := make([]float64, B*mo), make([]float64, mo*B), make([]float64, m*B)
			dx := make([]float64, B)
			rows, tri := min(B, m), 0
			for p := 1; p < m; p++ {
				tri += min(p, rows)
			}
			for _, body := range bodies {
				kn := body.k
				run := func(leaf string, cells int, fn func()) {
					b.Run(fmt.Sprintf("%s-%dx%d/%s/%s", shape.name, m, mo, leaf, body.name), func(b *testing.B) {
						for b.Loop() {
							fn()
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
					})
				}
				run("gather", rows*mo, func() {
					for x := range rows {
						f, at := ops.of(x)
						kn.sumRows(u[x*mo:(x+1)*mo], S, mo, f, at)
					}
				})
				run("transpose", rows*mo, func() { kn.transpose(ut, u, mo, 0, (rows+3)&^3) })
				run("pull", tri, func() {
					for p := 1; p < m; p++ {
						f, at := ops.of(p)
						kn.sumRows(cell[p*B:][:min(p, rows)], ut, B, f, at)
					}
				})
				run("sink", tri, func() {
					for p := 1; p < m; p++ {
						L := min(p, rows)
						kn.sink(cell[p*B:][:L], own[p*m:][:L], own[p:], m, fac[p*(p-1)/2:][:L], dx[:L], k.c, 1, cfg.PruneEpsilon)
					}
				})
			}
		}
	}
}
