package serve

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/frame"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// appendSegment appends one shard's rows of a stitched frontier to dst as
// the sorted binary record stream. ids are the shard's global ids,
// ascending (partition.Plan.Validate), and every pair stored in those rows
// lies in the shard, so walking the rows in id order emits the records
// ascending by (i, j): nothing sorts.
func appendSegment(dst []byte, f *sparse.PairFrontier, ids []int) []byte {
	for _, i := range ids {
		cols, vals := f.Row(i)
		for k, j := range cols {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(j))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[k]))
		}
	}
	return dst
}

// segmentLen is the byte length appendSegment writes for ids' rows of f.
func segmentLen(f *sparse.PairFrontier, ids []int) int64 {
	n := 0
	for _, i := range ids {
		cols, _ := f.Row(i)
		n += len(cols)
	}
	return int64(n) * pairRecordSize
}

// genInfo is the generation metadata stamped into the header.
type genInfo struct {
	iterations  int
	converged   bool
	generatedAt time.Time
	// dirtyShards is how many shards the producing refresh recomputed;
	// fullBuildSentinel for a from-scratch write.
	dirtyShards uint32
}

// WriteSnapshotTopK writes a full build of res — the refresh in which
// every shard is dirty — to w from offset 0, with the precomputed rewrite
// section opts configures (K 0 writes none). res may be any complete
// core.RunSharded result (partition.WholePlan is the one-shard plan): the
// writer walks res.Plan, encoding each shard's rows of the stitched
// frontiers into its segment pair at its file offset, in parallel. A
// result without a plan (core.Run) and one of a partial
// (ShardOptions.RunShards) run are rejected — the latter's missing shards
// can only be completed by Refresh.
func WriteSnapshotTopK(w io.WriterAt, res *core.Result, opts TopKOptions) error {
	if res.Plan == nil {
		return fmt.Errorf("serve: a snapshot is written shard by shard from a plan: run core.RunSharded (partition.WholePlan for one shard)")
	}
	for i, st := range res.ShardStats {
		if st.Skipped {
			return fmt.Errorf("serve: shard %d has no scores (partial refresh run?); a refresh completes it", i)
		}
	}
	_, err := assembleSnapshot(w, res, res.Config, nil, opts.meta(), opts.BidTerms, genInfo{
		iterations:  res.Iterations,
		converged:   res.Converged,
		generatedAt: time.Now(),
		dirtyShards: fullBuildSentinel,
	})
	return err
}

// shardPart is one shard's place in the file being assembled: where its
// segment pair starts, how long each side is, their CRCs and the shard's
// top-k blob. A computed shard's pool task fills in the CRCs and the
// blob; a clean shard's bytes are prev's, held from the layout on.
type shardPart struct {
	off        int64 // query segment; the ad segment follows it
	qLen, aLen int64
	qCRC, aCRC uint32
	blob       []byte
	tkCRC      uint32
	q, a       []byte // a clean shard's segments
}

// assembleSnapshot is the one snapshot assembler. It writes the snapshot of
// run's graph through w, one part per shard of run.Plan: a shard the run
// computed is encoded from the stitched frontiers, and one it skipped
// (ShardOptions.RunShards) has its segments and top-k blob byte-copied
// from prev under a fingerprint guard. A full build computes every shard
// and has no prev; a refresh computes its dirty shards.
//
// Every segment's offset follows from the graph (string table, route) and
// the pair counts alone, so the layout is fixed before any byte is
// encoded. One pool task per computed shard then encodes both of its
// segments into its worker's reused buffer, writes them with one WriteAt
// at the shard's offset and builds its top-k blob from the query bytes
// still in cache; a clean shard's task writes prev's bytes, verified
// while the layout was sized. Meanwhile this goroutine builds and writes
// the string table and route map. The blobs, the directory and the header
// go last, so a file cut short has no header; the header's sealed CRC
// covers the section and directory CRCs, so it names the whole file.
// Byte counters cover score segments only.
func assembleSnapshot(w io.WriterAt, run *core.Result, cfg core.Config, prev *Snapshot, tk topkMeta, bids map[string]bool, gen genInfo) (RefreshStats, error) {
	var st RefreshStats
	g, shards := run.Graph, run.Plan.Shards
	nq, na := g.NumQueries(), g.NumAds()
	if len(shards) > 1<<30 || uint64(nq) > math.MaxUint32 || uint64(na) > math.MaxUint32 {
		return st, fmt.Errorf("serve: snapshot dimensions overflow uint32")
	}

	// Layout: header, strings, route, directory, then every shard's query
	// and ad segments in plan order, then the top-k blobs.
	strLen := stringTableLen(g)
	routeLen := int64(4 * (nq + na))
	dirOff := headerSize + strLen + routeLen
	segOff := dirOff + int64(dirEntrySize*len(shards))
	parts := make([]shardPart, len(shards))
	off := segOff
	for i := range shards {
		p := &parts[i]
		p.off = off
		if !run.ShardStats[i].Skipped {
			p.qLen, p.aLen = segmentLen(run.QueryScores, shards[i].Queries), segmentLen(run.AdScores, shards[i].Ads)
			st.DirtyShards++
			st.BytesReencoded += p.qLen + p.aLen
		} else {
			if prev == nil || i >= prev.meta.Shards {
				return st, fmt.Errorf("serve: shard %d has no scores and no previous generation to copy them from", i)
			}
			if shards[i].Fingerprint != prev.dir[i].fp {
				return st, fmt.Errorf("serve: shard %d marked clean but its fingerprint differs from the previous generation's", i)
			}
			if err := p.copyFrom(prev, i); err != nil {
				return st, err
			}
			st.CleanShards++
			st.BytesCopied += p.qLen + p.aLen
		}
		off += p.qLen + p.aLen
	}
	tkOff := off

	errs := make([]error, len(shards))
	var failed atomic.Bool
	width := poolWidth(len(shards))
	scratch := make([]encodeScratch, width)
	pool := make(chan struct{})
	go func() {
		defer close(pool)
		parallelFor(width, len(shards), func(wk, i int) {
			if failed.Load() {
				return
			}
			p := &parts[i]
			var err error
			if run.ShardStats[i].Skipped {
				if _, err = w.WriteAt(p.q, p.off); err == nil {
					_, err = w.WriteAt(p.a, p.off+p.qLen)
				}
			} else {
				err = p.encode(w, &scratch[wk], run, &shards[i], tk, bids)
			}
			if err != nil {
				errs[i] = err
				failed.Store(true)
			}
		})
	}()

	// The string table and the route map, built and written while the
	// pool encodes: one buffer, two CRCs.
	e := frame.Append(make([]byte, 0, strLen+routeLen), "")
	for q := 0; q < nq; q++ {
		e.Str(g.Query(q))
	}
	for a := 0; a < na; a++ {
		e.Str(g.Ad(a))
	}
	sr := e.Bytes()[:strLen+routeLen]
	route := sr[strLen:]
	for si := range shards {
		for _, q := range shards[si].Queries {
			binary.LittleEndian.PutUint32(route[4*q:], uint32(si))
		}
		for _, a := range shards[si].Ads {
			binary.LittleEndian.PutUint32(route[4*(nq+a):], uint32(si))
		}
	}
	strCRC, routeCRC := crc32.ChecksumIEEE(sr[:strLen]), crc32.ChecksumIEEE(route)
	_, srErr := w.WriteAt(sr, headerSize)
	if srErr != nil {
		failed.Store(true)
	}
	<-pool
	if err := cmp.Or(srErr, cmp.Or(errs...)); err != nil {
		return st, err
	}

	// Blobs at the offsets their lengths now fix, then the directory and
	// the header.
	entries := frame.Append(make([]byte, 0, dirEntrySize*len(parts)), "")
	var totalQ, totalA uint64
	blobOff := tkOff
	for i := range parts {
		p := &parts[i]
		if err := checkTopKBlobLen(len(p.blob)); err != nil {
			return st, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		if _, err := w.WriteAt(p.blob, blobOff); err != nil {
			return st, err
		}
		qPairs, aPairs := uint64(p.qLen/pairRecordSize), uint64(p.aLen/pairRecordSize)
		entries.U64(uint64(p.off))
		entries.U64(uint64(p.off + p.qLen))
		entries.U64(qPairs)
		entries.U64(aPairs)
		entries.U32(p.qCRC)
		entries.U32(p.aCRC)
		entries.U64(shards[i].Fingerprint)
		entries.U64(uint64(blobOff))
		entries.U32(uint32(len(p.blob)))
		entries.U32(p.tkCRC)
		blobOff += int64(len(p.blob))
		totalQ += qPairs
		totalA += aPairs
	}
	dir := entries.Bytes()
	dirCRC := crc32.ChecksumIEEE(dir)
	if _, err := w.WriteAt(dir, dirOff); err != nil {
		return st, err
	}

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
	h.U32(uint32(len(parts)))
	h.U32(strCRC)
	h.U64(totalQ)
	h.U64(totalA)
	h.U64(headerSize)
	h.U64(uint64(strLen))
	h.U64(uint64(headerSize + strLen))
	h.U64(uint64(routeLen))
	h.U64(uint64(dirOff))
	h.U64(uint64(len(dir)))
	h.U32(routeCRC)
	h.U32(dirCRC)
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
	_, err := w.WriteAt(h.Seal(), 0)
	return st, err
}

// encodeScratch is one writer worker's buffers, reused shard after shard:
// the segment bytes and buildTopKBlob's working arrays.
type encodeScratch struct {
	buf  []byte
	topk topkScratch
}

// encode writes shard sh's segment pair, encoded from run's stitched
// frontiers, at p.off through sc.buf, the worker's reused buffer, and
// builds the shard's top-k blob from the query segment while it is still
// in cache.
func (p *shardPart) encode(w io.WriterAt, sc *encodeScratch, run *core.Result, sh *partition.Shard, tk topkMeta, bids map[string]bool) error {
	buf := slices.Grow(sc.buf[:0], int(p.qLen+p.aLen))
	buf = appendSegment(buf, run.QueryScores, sh.Queries)
	buf = appendSegment(buf, run.AdScores, sh.Ads)
	sc.buf = buf
	q, a := buf[:p.qLen], buf[p.qLen:]
	p.qCRC, p.aCRC = crc32.ChecksumIEEE(q), crc32.ChecksumIEEE(a)
	if _, err := w.WriteAt(buf, p.off); err != nil {
		return err
	}
	blob, err := buildTopKBlob(q, sh.Queries, run.Graph, tk, bids, &sc.topk)
	if err != nil {
		return err
	}
	p.blob, p.tkCRC = blob, crc32.ChecksumIEEE(blob)
	return nil
}

// copyFrom takes clean shard i's CRC-verified segments and top-k blob
// from prev, to be written unchanged.
func (p *shardPart) copyFrom(prev *Snapshot, i int) (err error) {
	if p.q, err = prev.segmentBytes("query", i); err != nil {
		return err
	}
	if p.a, err = prev.segmentBytes("ad", i); err != nil {
		return err
	}
	if p.blob, err = prev.segmentBytes("topk", i); err != nil {
		return err
	}
	e := &prev.dir[i]
	p.qLen, p.aLen = int64(len(p.q)), int64(len(p.a))
	p.qCRC, p.aCRC, p.tkCRC = e.qCRC, e.aCRC, e.tkCRC
	return nil
}

// stringTableLen is the byte length of g's string table: each name behind
// its uvarint length (frame.Encoder.Str), queries then ads.
func stringTableLen(g *clickgraph.Graph) int64 {
	var n int64
	var tmp [binary.MaxVarintLen64]byte
	for q := 0; q < g.NumQueries(); q++ {
		n += int64(binary.PutUvarint(tmp[:], uint64(len(g.Query(q)))) + len(g.Query(q)))
	}
	for a := 0; a < g.NumAds(); a++ {
		n += int64(binary.PutUvarint(tmp[:], uint64(len(g.Ad(a)))) + len(g.Ad(a)))
	}
	return n
}

// poolWidth is the worker count a parallelFor over n tasks runs on:
// GOMAXPROCS, but no more than there are tasks.
func poolWidth(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// parallelFor runs fn(wk, k) for k in 0..n-1 on width workers and waits:
// the per-shard fan-out of the snapshot writer and of PreloadAll. wk is
// the worker running k, in [0, width), so fn may reuse per-worker scratch
// at index wk; fn must confine its other writes to its own k.
func parallelFor(width, n int, fn func(wk, k int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < width; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				fn(wk, k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
}

// topkMeta is the precomputed rewrite section's header parameters: list
// depth k, the candidate-pool size the lists were filtered from, and the
// bid-term-set hash. A zero k means no section (every blob empty).
type topkMeta struct {
	k, topN uint32
	bidHash uint64
}

// WriteSnapshotFileTopK writes the snapshot in place into a temporary file
// that lands at path (LandFile): a server reloading on SIGHUP never
// observes a half-written snapshot, and a power loss after the return
// never leaves a torn one.
func WriteSnapshotFileTopK(path string, res *core.Result, opts TopKOptions) error {
	return LandFile(path, func(w *TempFile) error {
		return WriteSnapshotTopK(w, res, opts)
	}, nil)
}
