package core

import (
	"math/bits"

	"simrankpp/internal/sparse"
)

// The push kernel: the row kernel before the pull (engine.go). It gathers
// u exactly as the pull does, then scatters each touched u(j), in the
// gather's first-touch order, into every p > x of E(j) through a dense
// row accumulator t with one mark bit per cell and a per-worker cursor
// into each E(j), and harvests the marked cells ascending. Each cell's sum
// takes its addends in first-touch order where the pull takes them in
// ascending j, so the two agree to a few ulp, not bit for bit; it is kept
// as the reference the pull is held to (TestPullMatchesPush) and whose
// contribution count bounds the pull's work (TestPullSparseGuard).

// reverseFactors builds revW[o][k] = W(x, o) where x is the k-th neighbor
// of opposite node o: the walk factor attached to the (o → x) direction,
// looked up from this side's factor rows. thisNbr rows and oppNbr rows are
// both ascending, so x appears in oppNbr[o] at the next unfilled position.
func reverseFactors(thisNbr, oppNbr [][]int, w [][]float64) [][]float64 {
	revW := carveRows(oppNbr)
	pos := make([]int, len(oppNbr))
	for x, nbrs := range thisNbr {
		for k, o := range nbrs {
			revW[o][pos[o]] = w[x][k]
			pos[o]++
		}
	}
	return revW
}

// pushScratch is one worker's push state beside its spa: the row
// accumulator t, one mark bit per cell of it, and the scatter cursors —
// cur[j] is the first position of oppNbr[j] holding a node above the last
// row that scattered j. A worker's rows ascend within a pass, so a cursor
// only moves forward; every pass starts with fresh ones.
type pushScratch struct {
	t     []float64
	marks []uint64
	cur   []int32
}

// pushScratches returns fresh scratch for every spa of one pass from the
// opposite side's nodes (oppNbr) to this side's (thisNbr).
func pushScratches(spas []*spa, thisNbr, oppNbr [][]int) map[*spa]*pushScratch {
	n := len(thisNbr)
	m := make(map[*spa]*pushScratch, len(spas))
	for _, sp := range spas {
		m[sp] = &pushScratch{t: make([]float64, n), marks: make([]uint64, (n+63)/64), cur: make([]int32, len(oppNbr))}
	}
	return m
}

// scatter drains the gathered u into t: every touched j, in sp.ut's order,
// adds u(j) — times j's reversed walk factors when revW is non-nil — to
// t(p) for its neighbors p > x and marks the cell, counting one of sp.cells
// per contribution. Returns the lowest and highest index scattered to,
// pmin > pmax when there is none.
func (ps *pushScratch) scatter(sp *spa, x int, oppNbr [][]int, revW [][]float64) (pmin, pmax int) {
	u, t, marks, cur := sp.u, ps.t, ps.marks, ps.cur
	pmin, pmax = len(t), -1
	for _, j := range sp.ut {
		uj := u[j]
		u[j] = 0
		if uj == 0 {
			continue
		}
		nb := oppNbr[j]
		k := int(cur[j])
		for k < len(nb) && nb[k] <= x {
			k++
		}
		cur[j] = int32(k)
		if k == len(nb) {
			continue
		}
		nb = nb[k:]
		sp.cells += len(nb)
		pmin, pmax = min(pmin, nb[0]), max(pmax, nb[len(nb)-1])
		for kp, p := range nb {
			if revW != nil {
				t[p] += revW[j][k+kp] * uj
			} else {
				t[p] += uj
			}
			marks[uint(p)>>6] |= 1 << (uint(p) & 63)
		}
	}
	return pmin, pmax
}

// harvest walks the marks between pmin and pmax ascending, clearing cells
// and marks, and hands each cell's sum to emit.
func (ps *pushScratch) harvest(pmin, pmax int, emit func(p int, tv float64)) {
	t, marks := ps.t, ps.marks
	for wi := pmin >> 6; wi <= pmax>>6; wi++ {
		word := marks[wi]
		marks[wi] = 0
		for ; word != 0; word &= word - 1 {
			p := wi<<6 | bits.TrailingZeros64(word)
			tv := t[p]
			t[p] = 0
			emit(p, tv)
		}
	}
}

// simplePushPass is simplePass's push form.
func simplePushPass(sym *sparse.SymAdj, cand candidates, thisNbr, oppNbr [][]int, c float64, dst *sparse.PairFrontier, workers int, spas []*spa) {
	scratch := pushScratches(spas, thisNbr, oppNbr)
	runRowPass(thisNbr, cand, dst, workers, spas, func(sp *spa, x int) {
		nbrs := thisNbr[x]
		if len(nbrs) == 0 {
			return
		}
		ps := scratch[sp]
		sp.accumulate(nbrs, nil, sym)
		pmin, pmax := ps.scatter(sp, x, oppNbr, nil)
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		dx := float64(len(nbrs))
		ps.harvest(pmin, pmax, func(p int, tv float64) {
			if s := c * tv / (dx * float64(len(thisNbr[p]))); s != 0 {
				rowC = append(rowC, int32(p))
				rowV = append(rowV, s)
			}
		})
		sp.rowC, sp.rowV = rowC, rowV
		dst.SetSortedRow(x, rowC, rowV)
	})
}

// weightedPushPass is weightedPass's push form; revW holds the factors
// reversed onto the opposite side (reverseFactors).
func weightedPushPass(sym *sparse.SymAdj, cand candidates, thisNbr, oppNbr [][]int, w, revW [][]float64, ev *evidenceTable, c float64, dst *sparse.PairFrontier, workers int, spas []*spa) {
	scratch := pushScratches(spas, thisNbr, oppNbr)
	runRowPass(thisNbr, cand, dst, workers, spas, func(sp *spa, x int) {
		nbrs := thisNbr[x]
		if len(nbrs) == 0 {
			return
		}
		ps := scratch[sp]
		sp.accumulate(nbrs, w[x], sym)
		pmin, pmax := ps.scatter(sp, x, oppNbr, revW)
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		ps.harvest(pmin, pmax, func(p int, tv float64) {
			if e := ev.score(x, p); e > 0 {
				if s := e * c * tv; s != 0 {
					rowC = append(rowC, int32(p))
					rowV = append(rowV, s)
				}
			}
		})
		sp.rowC, sp.rowV = rowC, rowV
		dst.SetSortedRow(x, rowC, rowV)
	})
}

// pushSide is the push reference kernel. It reads evidence per pair from
// the sort-built table (sortedEvidenceTable), rebuilt on every call like
// its reversed factors. It gathers from the expansion sym alone; its
// multi-worker split weighs rows as the pull's sparse path does.
func pushSide(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst *sparse.PairFrontier, workers int, spas []*spa) {
	s := in.side(cfg, ads)
	cand := forcedCandidates(s, opp, sym, false)
	if cfg.Variant == Weighted {
		revW := reverseFactors(s.thisNbr, s.oppNbr, s.w)
		ev := sortedEvidenceTable(len(s.thisNbr), s.oppNbr, cfg.EvidenceForm, cfg.StrictEvidence)
		weightedPushPass(sym, cand, s.thisNbr, s.oppNbr, s.w, revW, ev, s.c, dst, workers, spas)
		return
	}
	simplePushPass(sym, cand, s.thisNbr, s.oppNbr, s.c, dst, workers, spas)
}
