package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/sparse"
	"simrankpp/internal/stem"
)

// The precomputed top-k rewrite section: at save/refresh time the full
// §9.3 pipeline (top-100 candidate pool, stem dedup, bid-term filter)
// runs once per stored query and its surviving rewrites land in the
// snapshot, so /rewrite is a single in-place list lookup — the offline
// computation and online lookup of the paper's Figure 2. The pipeline
// keeps survivors in ranking order and stops at k, so the first top
// entries of a stored list are its answer at any depth top ≤ k: the
// section answers every /rewrite a server accepts, and k caps them.
//
// Per-shard blob layout (all integers little-endian, offsets relative
// to the blob start, ids global — both properties are what make a blob
// position-independent, so a refresh byte-copies clean shards' blobs
// exactly like score segments):
//
//	u32 entry count n
//	n × (u32 query id ascending, u32 list offset, u32 list length)
//	list records: (u32 rewrite query id, float64 score)
//
// Every query routed to the shard gets an entry (length 0 allowed), so
// a missing entry is a structural fault, never an empty answer.

// DefaultRewriteTopK is the list depth every simrank -save writes: the
// §9.3 candidate pool, so a stored list is every survivor the pool has
// room for. A list holds what survives stem dedup and the bid filter, not
// k entries, so the depth costs bytes only where lists run that long.
const DefaultRewriteTopK = 100

// TopKOptions configures the precomputed rewrite section.
type TopKOptions struct {
	// K is the stored list depth; 0 writes no section, and such a
	// snapshot is not served.
	K int
	// BidTerms is the bid-term filter the lists are built under — it
	// must match the serving daemon's -bids set (compared by hash) for
	// the snapshot to be served.
	BidTerms map[string]bool
}

// meta derives the header parameters: the candidate pool is the
// pipeline's 100, grown to K when K exceeds it.
func (o TopKOptions) meta() topkMeta {
	if o.K <= 0 {
		return topkMeta{}
	}
	topN := o.K
	if topN < 100 {
		topN = 100
	}
	return topkMeta{k: uint32(o.K), topN: uint32(topN), bidHash: BidTermsHash(o.BidTerms)}
}

// BidTermsHash is an order-independent identity for a bid-term set: 0
// for nil (no filtering), and for any non-nil set the FNV-64a offset
// basis XORed with each term's hash — so an empty non-nil set (filter
// everything) still differs from no filter at all.
func BidTermsHash(terms map[string]bool) uint64 {
	if terms == nil {
		return 0
	}
	h := fnv.New64a()
	acc := h.Sum64() // offset basis
	for t, ok := range terms {
		if !ok {
			continue
		}
		h.Reset()
		h.Write([]byte(t))
		acc ^= h.Sum64()
	}
	return acc
}

// topkSliceSource feeds a prebuilt ranked candidate list through the
// real rewrite.Pipeline — the same filter code the CLI and the
// experiments run, which is what ties stored lists to the §9.3 definition.
type topkSliceSource struct {
	list []sparse.Scored
}

func (s *topkSliceSource) Name() string { return "topk-build" }

func (s *topkSliceSource) Rewrites(_ int, limit int) ([]sparse.Scored, error) {
	if limit < 0 || limit > len(s.list) {
		limit = len(s.list)
	}
	return s.list[:limit], nil
}

// shardNames is the names source buildTopKBlob hands the pipeline. It
// names a query by its position in the shard's ascending id list, not by
// its global id: positions sort like the ids, so the builder ranks them
// under the same tie-break and maps a survivor to its id only when it
// writes it. Per position it holds what the pipeline would otherwise
// derive from the name once per candidate — each query is the subject of
// one list and a candidate in up to a hundred others: the stem key and,
// under a bid list, whether the name is bid on. A writer worker keeps one
// and refills it shard after shard (reset), so its buffers and its word
// map are reused and a refresh stems only its dirty shards' names.
type shardNames struct {
	g    *clickgraph.Graph
	ids  []int   // the shard's global query ids, ascending
	keys string  // the positions' stem keys back to back: p's is keys[off[p]:off[p+1]]
	off  []int32 // len(ids)+1 offsets into keys
	bid  []bool  // bid[p]: the bid list holds p's name; nil without a bid list

	flags []bool              // bid's storage
	buf   []byte              // keys as they are built
	words map[string]wordStem // the shard's words so far, each with its stem
	stems []byte              // the stems' bytes
}

// wordStem locates a word's stem in shardNames.stems: stems[lo:hi].
type wordStem struct{ lo, hi int32 }

// reset fills s for the shard of g's queries qIDs under the bid list bids.
// Names share most of their words, so stem.AppendWord runs once per
// distinct word of the shard; a name's key is its word stems joined by
// single spaces, which is stem.Phrase by construction.
func (s *shardNames) reset(g *clickgraph.Graph, qIDs []int, bids map[string]bool) {
	s.g = g
	s.ids = append(s.ids[:0], qIDs...)
	slices.Sort(s.ids)
	s.off = resized(&s.off, len(s.ids)+1)
	s.bid = nil
	if bids != nil {
		s.bid = resized(&s.flags, len(s.ids))
	}
	if s.words == nil {
		s.words = make(map[string]wordStem)
	}
	clear(s.words)
	s.stems = s.stems[:0]
	buf := s.buf[:0]
	for p, id := range s.ids {
		name := g.Query(id)
		if s.bid != nil {
			s.bid[p] = bids[name]
		}
		s.off[p] = int32(len(buf))
		for w := range strings.FieldsSeq(name) {
			st, ok := s.words[w]
			if !ok {
				lo := len(s.stems)
				s.stems = stem.AppendWord(s.stems, w)
				st = wordStem{int32(lo), int32(len(s.stems))}
				s.words[w] = st
			}
			if len(buf) > int(s.off[p]) {
				buf = append(buf, ' ')
			}
			buf = append(buf, s.stems[st.lo:st.hi]...)
		}
	}
	s.off[len(s.ids)] = int32(len(buf))
	s.buf = buf
	s.keys = string(buf)
}

// NumQueries and Query are rewrite.QueryNames over positions.
func (s *shardNames) NumQueries() int    { return len(s.ids) }
func (s *shardNames) Query(p int) string { return s.g.Query(s.ids[p]) }

// StemKey and BidTerm are the optional names-source methods
// rewrite.Pipeline asks for before it stems or hashes a name itself.
func (s *shardNames) StemKey(p int) string { return s.keys[s.off[p]:s.off[p+1]] }
func (s *shardNames) BidTerm(p int) bool   { return s.bid[p] }

// topkScratch is one writer worker's buildTopKBlob memory, kept between
// calls so that the worker sizes it once for the largest shard it builds:
// the shard's names, the row and bid-row lengths, the whole-row flags, the
// list starts and fill cursors, the flat partner lists, and the
// pipeline's scratch.
type topkScratch struct {
	names          shardNames
	rowLen, bidLen []int
	whole          []bool
	start, next    []int
	flat           []sparse.Scored
	src            topkSliceSource
	filter         rewrite.Scratch
}

// seek returns the first position from p on whose id is not below id.
// A segment's records ascend by (i, j) with i < j, and so do the shard's
// ids, so i's position only moves forward over the whole segment and j's,
// from just past i's, over one row.
func seek(ids []int, p int, id uint32) int {
	for p < len(ids) && ids[p] < int(id) {
		p++
	}
	return p
}

// resized returns (*buf)[:n], reallocated when its capacity is short; the
// cells keep whatever the last call left in them.
func resized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// checkTopKBlobLen refuses a blob whose length — and so any list offset
// inside it — does not fit the u32 fields the entry table and the
// directory record it in; a wrapped offset could pass validateTopKBlob
// and serve another query's list.
func checkTopKBlobLen(n int) error {
	if uint64(n) > math.MaxUint32 {
		return fmt.Errorf("topk blob of %d bytes overflows the layout's 32-bit offsets", n)
	}
	return nil
}

// buildTopKBlob builds one shard's blob from its encoded query segment:
// decode partner lists, rank them exactly as segView.topKFor would, and
// filter each query's ranking through the pipeline at depth k. qIDs is
// the shard's global query ids.
//
// Only partners that can reach a list are ranked. The pipeline reads a
// ranking's first tk.topN candidates, and one its bid test drops (that
// test runs before the stem test) leaves no trace, so dropping it first
// changes no survivor: a row no longer than the pool keeps its bid
// partners, a longer row the bid partners among its tk.topN best (all of
// them without a bid list), and only what is kept is sorted.
//
// sc holds the call's working memory, reused from the caller's previous
// call: the writer keeps one per pool worker. Beside the blob itself a
// call allocates only the shard's stem keys and what grows sc.
func buildTopKBlob(qSeg []byte, qIDs []int, g *clickgraph.Graph, tk topkMeta, bids map[string]bool, sc *topkScratch) ([]byte, error) {
	if tk.k == 0 {
		return nil, nil
	}
	shard := &sc.names
	shard.reset(g, qIDs, bids)
	ids, bid, topN := shard.ids, shard.bid, int(tk.topN)
	// Partner lists, sized by a counting pass and filled into one flat
	// array by a second walk of the records (as sparse.ExpandSymmetric
	// does): position p's list is flat[start[p]:start[p+1]], of partner
	// positions. Both walks find a record's positions by seek; the
	// counting pass refuses an id that is not at the position it finds,
	// which also refuses a repeated or descending record.
	n := len(qSeg) / pairRecordSize
	rowLen := resized(&sc.rowLen, len(ids)) // partners of each row
	bidLen := resized(&sc.bidLen, len(ids)) // bid partners of each row
	clear(rowLen)
	clear(bidLen)
	pi := -1
	for seg := qSeg[:n*pairRecordSize]; len(seg) > 0; {
		i := binary.LittleEndian.Uint32(seg)
		if pi = seek(ids, pi+1, i); pi == len(ids) || ids[pi] != int(i) {
			return nil, fmt.Errorf("serve: query segment row %d names a query outside its shard or breaks the ascending i order", i)
		}
		bi := bid != nil && bid[pi]
		for pj := pi; len(seg) > 0 && binary.LittleEndian.Uint32(seg) == i; seg = seg[pairRecordSize:] {
			j := binary.LittleEndian.Uint32(seg[4:])
			if pj = seek(ids, pj+1, j); pj == len(ids) || ids[pj] != int(j) {
				return nil, fmt.Errorf("serve: query segment pair (%d, %d) names a query outside its shard or breaks the ascending i < j order", i, j)
			}
			rowLen[pi]++
			rowLen[pj]++
			if bid != nil && bid[pj] {
				bidLen[pi]++
			}
			if bi {
				bidLen[pj]++
			}
		}
	}
	// whole[p]: row p is stored whole — there is no bid list, or the row
	// is longer than the pool and holds a bid partner, so it must be ranked
	// among all its partners before its unbid ones go. Any other row stores
	// only its bid partners.
	whole := resized(&sc.whole, len(ids))
	start := resized(&sc.start, len(ids)+1)
	start[0] = 0
	for p := range ids {
		keep := bidLen[p]
		whole[p] = bid == nil || rowLen[p] > topN && keep > 0
		if whole[p] {
			keep = rowLen[p]
		}
		start[p+1] = start[p] + keep
	}
	flat := resized(&sc.flat, start[len(ids)])
	next := append(sc.next[:0], start[:len(ids)]...)
	sc.next = next
	pi = -1
	for seg := qSeg[:n*pairRecordSize]; len(seg) > 0; {
		i := binary.LittleEndian.Uint32(seg)
		pi = seek(ids, pi+1, i)
		for pj := pi; len(seg) > 0 && binary.LittleEndian.Uint32(seg) == i; seg = seg[pairRecordSize:] {
			pj = seek(ids, pj+1, binary.LittleEndian.Uint32(seg[4:]))
			// bid is nil only when every row is whole.
			inI, inJ := whole[pi] || bid[pj], whole[pj] || bid[pi]
			if !inI && !inJ {
				continue
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(seg[8:]))
			if inI {
				flat[next[pi]] = sparse.Scored{Node: pj, Score: v}
				next[pi]++
			}
			if inJ {
				flat[next[pj]] = sparse.Scored{Node: pi, Score: v}
				next[pj]++
			}
		}
	}

	pipe := rewrite.NewPipeline(shard, bids)
	pipe.MaxRewrites = int(tk.k)
	pipe.TopN = topN
	src := &sc.src

	// A list holds at most k rewrites, and under a bid list only bid
	// partners survive, which bounds the blob before the pipeline runs.
	recs := 0
	for p := range ids {
		kept := rowLen[p]
		if bid != nil {
			kept = bidLen[p]
		}
		recs += min(int(tk.k), kept)
	}
	blob := make([]byte, 4+len(ids)*topkEntrySize, 4+len(ids)*topkEntrySize+recs*topkRecSize)
	binary.LittleEndian.PutUint32(blob, uint32(len(ids)))
	for e, qid := range ids {
		if uint64(qid) > math.MaxUint32 {
			return nil, fmt.Errorf("serve: query id %d overflows the topk entry", qid)
		}
		ranked := flat[start[e]:start[e+1]]
		if bid != nil && whole[e] {
			ranked = pooledBids(ranked, bid, topN)
		} else {
			ranked = sparse.TopScored(ranked, topN)
		}
		src.list = ranked
		cands, err := pipe.RewriteInto(&sc.filter, src, e)
		if err != nil {
			return nil, fmt.Errorf("serve: building topk list for query %d: %w", qid, err)
		}
		o := 4 + e*topkEntrySize
		binary.LittleEndian.PutUint32(blob[o:], uint32(qid))
		binary.LittleEndian.PutUint32(blob[o+4:], uint32(len(blob)))
		binary.LittleEndian.PutUint32(blob[o+8:], uint32(len(cands)))
		for _, c := range cands {
			blob = binary.LittleEndian.AppendUint32(blob, uint32(ids[c.Query]))
			blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(c.Score))
		}
	}
	// Every list offset written above is at most the blob's length.
	if err := checkTopKBlobLen(len(blob)); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return blob, nil
}

// validateTopKBlob structurally checks one CRC-verified blob on first
// touch: bounded entry table, ids ascending, list lengths within k,
// every list inside the blob. A nil blob (section disabled) is valid.
func validateTopKBlob(b []byte, k int) error {
	if len(b) == 0 {
		return nil
	}
	if k <= 0 {
		return fmt.Errorf("topk blob present but header records no section")
	}
	if len(b) < 4 {
		return fmt.Errorf("topk blob truncated (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	entriesEnd := 4 + uint64(n)*topkEntrySize
	if entriesEnd > uint64(len(b)) {
		return fmt.Errorf("topk blob claims %d entries, more than its %d bytes hold", n, len(b))
	}
	prev := int64(-1)
	for e := 0; e < int(n); e++ {
		o := 4 + e*topkEntrySize
		qid := binary.LittleEndian.Uint32(b[o:])
		off := uint64(binary.LittleEndian.Uint32(b[o+4:]))
		cnt := uint64(binary.LittleEndian.Uint32(b[o+8:]))
		if int64(qid) <= prev {
			return fmt.Errorf("topk entries out of order at %d", e)
		}
		prev = int64(qid)
		if cnt > uint64(k) {
			return fmt.Errorf("topk list for query %d holds %d rewrites, past depth %d", qid, cnt, k)
		}
		if off < entriesEnd || off+cnt*topkRecSize > uint64(len(b)) {
			return fmt.Errorf("topk list for query %d [%d,+%d recs) outside the blob", qid, off, cnt)
		}
	}
	return nil
}

// precomputed answers query q at depth top from the snapshot's top-k
// section: one route lookup, one (lazily verified) blob, one binary
// search, one bounded copy. Callers cap top at the section's k; a
// negative top reads the whole list. Like ranked, it honors the request
// deadline before the (possibly slow) first blob load and after it, and a
// failed load, a quarantined blob, a snapshot without a section or a
// query without an entry is an error, never an empty answer.
func (s *Snapshot) precomputed(ctx context.Context, q, top int) ([]sparse.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.meta.RewriteTopK == 0 {
		return nil, fmt.Errorf("serve: snapshot has no top-k rewrite section")
	}
	si := int(s.qRoute[q])
	blob, err := s.topkBlob(si)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := 0
	if len(blob) > 0 {
		n = int(binary.LittleEndian.Uint32(blob))
	}
	e := sort.Search(n, func(e int) bool {
		return binary.LittleEndian.Uint32(blob[4+e*topkEntrySize:]) >= uint32(q)
	})
	if e == n || binary.LittleEndian.Uint32(blob[4+e*topkEntrySize:]) != uint32(q) {
		return nil, fmt.Errorf("serve: shard %d topk blob has no entry for query %d", si, q)
	}
	o := 4 + e*topkEntrySize
	off := int(binary.LittleEndian.Uint32(blob[o+4:]))
	cnt := int(binary.LittleEndian.Uint32(blob[o+8:]))
	if top >= 0 {
		cnt = min(cnt, top)
	}
	if cnt == 0 {
		return nil, nil
	}
	out := make([]sparse.Scored, cnt)
	for r := 0; r < cnt; r++ {
		ro := off + r*topkRecSize
		out[r] = sparse.Scored{
			Node:  int(binary.LittleEndian.Uint32(blob[ro:])),
			Score: math.Float64frombits(binary.LittleEndian.Uint64(blob[ro+4:])),
		}
	}
	return out, nil
}

// PrecomputedRewrites is precomputed without a deadline: q's stored list
// cut at top, and false when the lookup failed.
func (s *Snapshot) PrecomputedRewrites(q, top int) ([]sparse.Scored, bool) {
	out, err := s.precomputed(context.Background(), q, top)
	return out, err == nil
}

// pooledBids returns, sorted, the bid partners among row's topN first in
// SortScoredDesc's order. It moves the bid partners to the row's front and
// sorts them; the partners of the row ranked before one only grow along
// that order, so a binary search over that count finds the first bid
// partner past the pool. Under a sparse bid list that is a few walks of
// the row, each a branch-free count, not a selection over it.
func pooledBids(row []sparse.Scored, bid []bool, topN int) []sparse.Scored {
	b := 0
	for k, c := range row {
		if bid[c.Node] {
			row[b], row[k] = c, row[b]
			b++
		}
	}
	kept := row[:b]
	sparse.SortScoredDesc(kept)
	return kept[:sort.Search(b, func(k int) bool {
		c, ahead := kept[k], 0
		for _, x := range row {
			ahead += b2i(x.Score > c.Score) | b2i(x.Score == c.Score)&b2i(x.Node < c.Node)
		}
		return ahead >= topN
	})]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
