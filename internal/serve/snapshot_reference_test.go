package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/frame"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// imageBuffer is an in-memory io.WriterAt: a snapshot image for tests
// that hold no file. The writer's shard workers write it concurrently, at
// disjoint offsets.
type imageBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (m *imageBuffer) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if end := int(off) + len(p); end > len(m.b) {
		m.b = append(m.b, make([]byte, end-len(m.b))...)
	}
	return copy(m.b[off:], p), nil
}

func (m *imageBuffer) Bytes() []byte { return m.b }
func (m *imageBuffer) Len() int      { return len(m.b) }

// encodeSegment is appendSegment into a fresh slice: one shard side's
// segment bytes.
func encodeSegment(f *sparse.PairFrontier, ids []int) []byte {
	return appendSegment(make([]byte, 0, segmentLen(f, ids)), f, ids)
}

// The reference writer: the sequential assembler the in-place one
// replaced. It encodes every computed shard's segments, then builds every
// top-k blob from the encoded bytes, then writes header, strings, route,
// directory, segments and blobs in order through an io.Writer.
// TestSnapshotWriterMatchesReference holds assembleSnapshot's files to
// its bytes.

// shardSegment is one shard's encoded score segments with their CRCs.
type shardSegment struct {
	QuerySeg, AdSeg []byte
	QueryCRC, AdCRC uint32
}

// shardPayload is one shard's bytes as writeAssembled lays them out.
type shardPayload struct {
	shardSegment
	tkBlob []byte
	tkCRC  uint32
}

// encodeShards encodes every shard of res.Plan that ran; a shard the run
// skipped stays nil.
func encodeShards(res *core.Result) []*shardSegment {
	segs := make([]*shardSegment, len(res.Plan.Shards))
	for i := range res.Plan.Shards {
		if res.ShardStats[i].Skipped {
			continue
		}
		sh := &res.Plan.Shards[i]
		seg := shardSegment{QuerySeg: encodeSegment(res.QueryScores, sh.Queries), AdSeg: encodeSegment(res.AdScores, sh.Ads)}
		seg.QueryCRC, seg.AdCRC = crc32.ChecksumIEEE(seg.QuerySeg), crc32.ChecksumIEEE(seg.AdSeg)
		segs[i] = &seg
	}
	return segs
}

// referenceAssemble is the reference assembleSnapshot: segs[i] nil copies
// shard i from prev.
func referenceAssemble(w io.Writer, g *clickgraph.Graph, cfg core.Config, shards []partition.Shard, segs []*shardSegment, prev *Snapshot, tk topkMeta, bids map[string]bool, gen genInfo) error {
	payloads := make([]shardPayload, len(shards))
	for i, seg := range segs {
		p := &payloads[i]
		if seg != nil {
			p.shardSegment = *seg
			blob, err := buildTopKBlob(p.QuerySeg, shards[i].Queries, g, tk, bids, new(topkScratch))
			if err != nil {
				return err
			}
			p.tkBlob, p.tkCRC = blob, crc32.ChecksumIEEE(blob)
			continue
		}
		e := &prev.dir[i]
		if shards[i].Fingerprint != e.fp {
			return fmt.Errorf("shard %d marked clean but its fingerprint differs", i)
		}
		var err error
		if p.QuerySeg, err = prev.segmentBytes("query", i); err != nil {
			return err
		}
		if p.AdSeg, err = prev.segmentBytes("ad", i); err != nil {
			return err
		}
		if p.tkBlob, err = prev.segmentBytes("topk", i); err != nil {
			return err
		}
		p.QueryCRC, p.AdCRC, p.tkCRC = e.qCRC, e.aCRC, e.tkCRC
	}
	return writeAssembled(w, g, cfg, shards, payloads, gen, tk)
}

// writeAssembled lays out and writes a complete snapshot in file order.
func writeAssembled(w io.Writer, g *clickgraph.Graph, cfg core.Config, shards []partition.Shard, payloads []shardPayload, gen genInfo, tk topkMeta) error {
	nq, na := g.NumQueries(), g.NumAds()
	strs := frame.Append(nil, "")
	for q := 0; q < nq; q++ {
		strs.Str(g.Query(q))
	}
	for a := 0; a < na; a++ {
		strs.Str(g.Ad(a))
	}
	strBuf := strs.Bytes()

	route := make([]byte, 4*(nq+na))
	for si := range shards {
		for _, q := range shards[si].Queries {
			binary.LittleEndian.PutUint32(route[4*q:], uint32(si))
		}
		for _, a := range shards[si].Ads {
			binary.LittleEndian.PutUint32(route[4*(nq+a):], uint32(si))
		}
	}

	stringsOff := uint64(headerSize)
	routeOff := stringsOff + uint64(len(strBuf))
	dirOff := routeOff + uint64(len(route))
	segOff := dirOff + uint64(dirEntrySize*len(payloads))
	tkOff := segOff
	for i := range payloads {
		tkOff += uint64(len(payloads[i].QuerySeg) + len(payloads[i].AdSeg))
	}
	entries := frame.Append(make([]byte, 0, dirEntrySize*len(payloads)), "")
	var totalQ, totalA uint64
	for i := range payloads {
		p := &payloads[i]
		qPairs := uint64(len(p.QuerySeg) / pairRecordSize)
		aPairs := uint64(len(p.AdSeg) / pairRecordSize)
		entries.U64(segOff)
		entries.U64(segOff + uint64(len(p.QuerySeg)))
		entries.U64(qPairs)
		entries.U64(aPairs)
		entries.U32(p.QueryCRC)
		entries.U32(p.AdCRC)
		entries.U64(shards[i].Fingerprint)
		entries.U64(tkOff)
		entries.U32(uint32(len(p.tkBlob)))
		entries.U32(p.tkCRC)
		segOff += uint64(len(p.QuerySeg) + len(p.AdSeg))
		tkOff += uint64(len(p.tkBlob))
		totalQ += qPairs
		totalA += aPairs
	}
	dir := entries.Bytes()

	var flags uint32
	if gen.converged {
		flags |= flagConverged
	}
	if cfg.StrictEvidence {
		flags |= flagStrictEvidence
	}
	h := frame.Append(make([]byte, 0, headerSize), snapshotMagic)
	h.U32(snapshotVersion)
	h.U32(flags)
	h.U32(uint32(cfg.Variant))
	h.U32(uint32(gen.iterations))
	h.F64(cfg.C1)
	h.F64(cfg.C2)
	h.U32(uint32(nq))
	h.U32(uint32(na))
	h.U32(uint32(len(payloads)))
	h.U32(crc32.ChecksumIEEE(strBuf))
	h.U64(totalQ)
	h.U64(totalA)
	h.U64(stringsOff)
	h.U64(uint64(len(strBuf)))
	h.U64(routeOff)
	h.U64(uint64(len(route)))
	h.U64(dirOff)
	h.U64(uint64(len(dir)))
	h.U32(crc32.ChecksumIEEE(route))
	h.U32(crc32.ChecksumIEEE(dir))
	h.U64(uint64(gen.generatedAt.Unix()))
	h.U32(gen.dirtyShards)
	h.U32(uint32(cfg.Channel))
	h.U32(uint32(cfg.EvidenceForm))
	h.F64(cfg.PruneEpsilon)
	h.F64(cfg.Tolerance)
	h.F64(cfg.DeltaSkipTolerance)
	h.U32(uint32(cfg.Iterations))
	h.U32(tk.k)
	h.U32(tk.topN)
	h.U64(tk.bidHash)
	h.U32(0) // reserved
	hdr := h.Seal()

	for _, b := range [][]byte{hdr, strBuf, route, dir} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	for i := range payloads {
		if _, err := w.Write(payloads[i].QuerySeg); err != nil {
			return err
		}
		if _, err := w.Write(payloads[i].AdSeg); err != nil {
			return err
		}
	}
	for i := range payloads {
		if _, err := w.Write(payloads[i].tkBlob); err != nil {
			return err
		}
	}
	return nil
}

// diffOutsideGenerationStamp reports where got and want differ outside
// the header's generated-at field and its CRC, or -1.
func diffOutsideGenerationStamp(got, want []byte) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !(i >= 128 && i < 136) && !(i >= headerSize-frame.TrailerSize && i < headerSize) {
			return i
		}
	}
	return -1
}

// TestSnapshotWriterMatchesReference holds the in-place writer's files
// byte-equal to the sequential reference's under the same generation
// stamp: full builds over WholePlan, an exact component plan and an
// ACL-carved plan, with a sparse, an empty and no bid list and with no
// top-k section, and a refresh mixing clean and dirty shards. A file
// written through WriteSnapshotFileTopK must equal the reference outside
// the generated-at stamp and the header CRC.
func TestSnapshotWriterMatchesReference(t *testing.T) {
	g := handoffGraph(t)
	plans := handoffPlans(t, g)
	plans["whole"] = partition.WholePlan(g)
	bids := map[string]bool{}
	for q := 0; q < g.NumQueries(); q += 3 {
		bids[g.Query(q)] = true
	}
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	for name, plan := range plans {
		res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []TopKOptions{
			{K: DefaultRewriteTopK}, {K: 3, BidTerms: bids}, {K: 0}, {K: 5, BidTerms: map[string]bool{}},
		} {
			label := fmt.Sprintf("%s/K=%d/bids=%d", name, opts.K, len(opts.BidTerms))
			if opts.BidTerms == nil {
				label = fmt.Sprintf("%s/K=%d/nil bids", name, opts.K)
			}
			gen := genInfo{iterations: res.Iterations, converged: res.Converged, generatedAt: time.Unix(1e9, 0), dirtyShards: fullBuildSentinel}
			var ref bytes.Buffer
			if err := referenceAssemble(&ref, g, res.Config, plan.Shards, encodeShards(res), nil, opts.meta(), opts.BidTerms, gen); err != nil {
				t.Fatal(err)
			}
			var got imageBuffer
			_, err := assembleSnapshot(&got, res, res.Config, nil, opts.meta(), opts.BidTerms, gen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Fatalf("%s: in-place file differs from the reference at byte %d of %d", label, diffOutsideGenerationStamp(got.Bytes(), ref.Bytes()), ref.Len())
			}

			path := filepath.Join(t.TempDir(), "s.snap")
			if err := WriteSnapshotFileTopK(path, res, opts); err != nil {
				t.Fatal(err)
			}
			if at := diffOutsideGenerationStamp(readFile(t, path), ref.Bytes()); at >= 0 {
				t.Fatalf("%s: WriteSnapshotFileTopK differs from the reference at byte %d", label, at)
			}
		}
	}

	// A refresh: half the shards of the carved plan dirty, the rest copied.
	plan := plans["acl-cut"]
	opts := TopKOptions{K: 4, BidTerms: bids}
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var base imageBuffer
	if err := WriteSnapshotTopK(&base, res, opts); err != nil {
		t.Fatal(err)
	}
	prev, err := NewSnapshot(bytes.NewReader(base.Bytes()), int64(base.Len()))
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()
	dirty := make([]bool, len(plan.Shards))
	for i := range dirty {
		dirty[i] = i%2 == 1
	}
	run, err := runDirty(t.Context(), g, prev, plan, dirty, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := genInfo{iterations: 3, converged: true, generatedAt: time.Unix(1e9, 0), dirtyShards: 2}
	var ref bytes.Buffer
	if err := referenceAssemble(&ref, g, prev.Config(), plan.Shards, encodeShards(run), prev, opts.meta(), bids, gen); err != nil {
		t.Fatal(err)
	}
	var got imageBuffer
	st, err := assembleSnapshot(&got, run, prev.Config(), prev, opts.meta(), bids, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyShards == 0 || st.CleanShards == 0 {
		t.Fatalf("refresh wrote %d dirty and %d clean shards, want both", st.DirtyShards, st.CleanShards)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("refresh: in-place file differs from the reference at byte %d", diffOutsideGenerationStamp(got.Bytes(), ref.Bytes()))
	}
	// The graph did not change, so past the header the refresh is the
	// full build again.
	if !bytes.Equal(got.Bytes()[headerSize:], base.Bytes()[headerSize:]) {
		t.Fatal("refresh of an unchanged graph differs from its full build past the header")
	}
}
