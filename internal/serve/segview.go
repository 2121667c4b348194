package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"simrankpp/internal/sparse"
)

// segView is the snapshot's one score-segment reader: a cursor over a
// verified segment's bytes — the sorted (uint32 i, uint32 j, float64
// score) records exactly as the file holds them, with i < j in global ids
// and records ascending by (i, j) — wherever those bytes live (a slice of
// the mapping, or a buffer ReadAt filled). The scores are never decoded:
// a ranked lookup binary-searches the packed keys in place and reads only
// the records a node's partners occupy. This is the janus-datalog idiom
// (serve straight off the immutable bytes) applied to the snapshot
// layout.
//
// A node's partners live in two regions: the contiguous (node, j) run —
// binary-searchable in the primary (i, j) order — and scattered (i,
// node) records anywhere before it. byJ makes the scatter searchable
// too: a permutation of record indices sorted by (j, i), built once per
// segment at load (4 bytes per pair, the only state kept beside the
// bytes themselves).
//
// The view must return the scores the snapshot was written from bit for
// bit, ranked descending by score then ascending by id, which the
// differential tests pin against core.Result.
type segView struct {
	b   []byte   // records validated by buildScatterIndex before construction
	byJ []uint32 // record indices sorted by packed (j<<32 | i)
}

// buildScatterIndex computes the by-(j, i) permutation for a
// checksum-verified segment on a side with the given node count, and
// rejects a segment whose records break what the lookups rely on: topKFor
// binary-searches keys that must strictly ascend, and callers index name
// tables with the ids they get back. Called once per segment under the
// shard's load lock. The primary order already ascends in i, so
// a stable sort by j alone is the sort by (j, i): counting-sort passes
// over 11-bit digits of j − min j, as many as the segment's id range
// needs, with no comparator.
func buildScatterIndex(b []byte, nodes int) ([]uint32, error) {
	n := len(b) / pairRecordSize
	if n == 0 {
		return nil, nil
	}
	js := make([]uint32, n)
	lo, hi := ^uint32(0), uint32(0)
	var prev uint64
	for k := range js {
		i := binary.LittleEndian.Uint32(b[k*pairRecordSize:])
		j := binary.LittleEndian.Uint32(b[k*pairRecordSize+4:])
		key := uint64(i)<<32 | uint64(j)
		// i < j makes key ≥ 1, so the first record passes key > 0.
		if i >= j || key <= prev {
			return nil, fmt.Errorf("record %d (%d, %d) breaks the strictly ascending i < j order", k, i, j)
		}
		prev = key
		js[k] = j
		lo, hi = min(lo, j), max(hi, j)
	}
	// i < j ≤ hi, so bounding the largest j bounds every id.
	if uint64(hi) >= uint64(nodes) {
		return nil, fmt.Errorf("node id %d on a side of %d nodes", hi, nodes)
	}
	idx, tmp := make([]uint32, n), make([]uint32, n)
	for k := range idx {
		idx[k] = uint32(k)
	}
	const bits, mask = 11, 1<<11 - 1
	var count [mask + 2]int
	for shift := 0; (hi-lo)>>shift != 0; shift += bits {
		clear(count[:])
		for _, j := range js {
			count[(j-lo)>>shift&mask+1]++
		}
		for d := 0; d <= mask; d++ {
			count[d+1] += count[d]
		}
		for _, r := range idx {
			d := (js[r] - lo) >> shift & mask
			tmp[count[d]] = r
			count[d]++
		}
		idx, tmp = tmp, idx
	}
	return idx, nil
}

// pairs returns the record count.
func (v segView) pairs() int { return len(v.b) / pairRecordSize }

// key returns record k's packed (i<<32 | j) sort key.
func (v segView) key(k int) uint64 {
	o := k * pairRecordSize
	i := binary.LittleEndian.Uint32(v.b[o:])
	j := binary.LittleEndian.Uint32(v.b[o+4:])
	return uint64(i)<<32 | uint64(j)
}

// jkey returns record k's packed (j<<32 | i) key — the scatter-index
// sort order.
func (v segView) jkey(k int) uint64 {
	o := k * pairRecordSize
	i := binary.LittleEndian.Uint32(v.b[o:])
	j := binary.LittleEndian.Uint32(v.b[o+4:])
	return uint64(j)<<32 | uint64(i)
}

// score returns record k's score.
func (v segView) score(k int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.b[k*pairRecordSize+8:]))
}

// lowerBound returns the first record index whose key is >= want.
func (v segView) lowerBound(want uint64) int {
	return sort.Search(v.pairs(), func(k int) bool { return v.key(k) >= want })
}

// topKFor returns node's k highest-scoring partners (ties broken by
// ascending id; k < 0 means all).
// The contiguous (node, j) run is binary-searched in the primary order;
// the scattered (i, node) records are the matching run of the by-(j, i)
// permutation. Both are O(log pairs + degree).
func (v segView) topKFor(node, k int) []sparse.Scored {
	// Both runs' bounds come from binary searches, so the result is
	// allocated exactly once at its final size.
	want := uint64(uint32(node)) << 32
	next := uint64(uint32(node)+1) << 32
	jLo := sort.Search(len(v.byJ), func(x int) bool { return v.jkey(int(v.byJ[x])) >= want })
	jHi := jLo + sort.Search(len(v.byJ)-jLo, func(x int) bool { return v.jkey(int(v.byJ[jLo+x])) >= next })
	iLo := v.lowerBound(want)
	iHi := iLo + sort.Search(v.pairs()-iLo, func(x int) bool { return v.key(iLo+x) >= next })
	out := make([]sparse.Scored, 0, (jHi-jLo)+(iHi-iLo))
	// Scattered region: records whose j side is node, contiguous in byJ.
	for x := jLo; x < jHi; x++ {
		r := int(v.byJ[x])
		out = append(out, sparse.Scored{
			Node:  int(binary.LittleEndian.Uint32(v.b[r*pairRecordSize:])),
			Score: v.score(r),
		})
	}
	// Contiguous region: the (node, j) run in the primary order.
	for r := iLo; r < iHi; r++ {
		out = append(out, sparse.Scored{
			Node:  int(binary.LittleEndian.Uint32(v.b[r*pairRecordSize+4:])),
			Score: v.score(r),
		})
	}
	out = sparse.TopScored(out, k)
	if len(out) == 0 {
		return nil
	}
	return out
}
