package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/frame"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// encodeSegment writes one shard's rows of a stitched frontier out as the
// sorted binary record stream. ids are the shard's global ids, ascending
// (partition.Plan.Validate), and every pair stored in those rows lies in
// the shard, so walking the rows in id order emits the records ascending
// by (i, j): nothing sorts.
func encodeSegment(f *sparse.PairFrontier, ids []int) []byte {
	n := 0
	for _, i := range ids {
		cols, _ := f.Row(i)
		n += len(cols)
	}
	buf := make([]byte, 0, n*pairRecordSize)
	for _, i := range ids {
		cols, vals := f.Row(i)
		for k, j := range cols {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vals[k]))
		}
	}
	return buf
}

// shardPayload is one shard's bytes as writeAssembled lays them out: its
// score segments and its top-k blob (empty when the snapshot carries no
// section).
type shardPayload struct {
	shardSegment
	tkBlob []byte
	tkCRC  uint32
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
// every shard is dirty — with the precomputed rewrite section opts
// configures (K 0 writes none). res may be any complete core.RunSharded
// result (partition.WholePlan is the one-shard plan): the writer walks
// res.Plan, encoding each shard's rows of the stitched frontiers into its
// segment pair, in parallel. A result without a plan (core.Run) and one of
// a partial (ShardOptions.RunShards) run are rejected — the latter's
// missing shards can only be completed by Refresh.
func WriteSnapshotTopK(w io.Writer, res *core.Result, opts TopKOptions) error {
	if res.Plan == nil {
		return fmt.Errorf("serve: a snapshot is written shard by shard from a plan: run core.RunSharded (partition.WholePlan for one shard)")
	}
	for i, st := range res.ShardStats {
		if st.Skipped {
			return fmt.Errorf("serve: shard %d has no scores (partial refresh run?); a refresh completes it", i)
		}
	}
	segs := encodeShards(res)
	_, err := assembleSnapshot(w, res.Graph, res.Config, res.Plan.Shards, segs, nil, opts.meta(), opts.BidTerms, genInfo{
		iterations:  res.Iterations,
		converged:   res.Converged,
		generatedAt: time.Now(),
		dirtyShards: fullBuildSentinel,
	})
	return err
}

// encodeShards encodes every shard of res.Plan that ran into segment wire
// form, one encoder per shard on a bounded pool; a shard
// ShardOptions.RunShards skipped stays nil.
func encodeShards(res *core.Result) []*shardSegment {
	shards := res.Plan.Shards
	segs := make([]*shardSegment, len(shards))
	parallelFor(len(shards), func(i int) {
		if !res.ShardStats[i].Skipped {
			seg := encodeShardSegment(res.QueryScores, res.AdScores, &shards[i])
			segs[i] = &seg
		}
	})
	return segs
}

// assembleSnapshot is the one snapshot assembler. It writes g's snapshot from one
// entry per shard: the shard's ids and fingerprint, and segs[i], its
// computed segments, or nil to byte-copy the shard's segments and top-k
// blob from prev under a fingerprint guard. The computed shards' top-k
// blobs are built here from their query segments. A full build computes
// every shard and has no prev; a refresh computes its dirty shards. Byte
// counters cover score segments only.
func assembleSnapshot(w io.Writer, g *clickgraph.Graph, cfg core.Config, shards []partition.Shard, segs []*shardSegment, prev *Snapshot, tk topkMeta, bids map[string]bool, gen genInfo) (RefreshStats, error) {
	var st RefreshStats
	payloads := make([]shardPayload, len(shards))
	var computed []int
	for i, seg := range segs {
		p := &payloads[i]
		if seg != nil {
			p.shardSegment = *seg
			computed = append(computed, i)
			st.DirtyShards++
			st.BytesReencoded += int64(len(seg.QuerySeg) + len(seg.AdSeg))
			continue
		}
		if prev == nil || i >= prev.meta.Shards {
			return st, fmt.Errorf("serve: shard %d has no segment and no previous generation to copy it from", i)
		}
		e := &prev.dir[i]
		if shards[i].Fingerprint != e.fp {
			return st, fmt.Errorf("serve: shard %d marked clean but its fingerprint differs from the previous generation's", i)
		}
		var err error
		if p.QuerySeg, err = prev.segmentBytes("query", i); err != nil {
			return st, err
		}
		if p.AdSeg, err = prev.segmentBytes("ad", i); err != nil {
			return st, err
		}
		if p.tkBlob, err = prev.segmentBytes("topk", i); err != nil {
			return st, err
		}
		p.QueryCRC, p.AdCRC, p.tkCRC = e.qCRC, e.aCRC, e.tkCRC
		st.CleanShards++
		st.BytesCopied += int64(len(p.QuerySeg) + len(p.AdSeg))
	}
	if err := fillTopKBlobs(payloads, computed, shards, g, tk, bids); err != nil {
		return st, err
	}
	return st, writeAssembled(w, g, cfg, shards, payloads, gen, tk)
}

// parallelFor runs fn(0..n-1) on a GOMAXPROCS-bounded pool and waits: the
// per-shard fan-out of the segment encoder, the top-k builder and
// PreloadAll. fn must confine its writes to its own index.
func parallelFor(n int, fn func(k int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				fn(k)
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

// writeAssembled lays out and writes a complete snapshot: string table
// from g, route map from the shards' ids, directory from their
// fingerprints and payloads, header from cfg, gen and the top-k section
// parameters.
func writeAssembled(w io.Writer, g *clickgraph.Graph, cfg core.Config, shards []partition.Shard, payloads []shardPayload, gen genInfo, tk topkMeta) error {
	nq, na := g.NumQueries(), g.NumAds()
	if len(payloads) > 1<<30 || uint64(nq) > math.MaxUint32 || uint64(na) > math.MaxUint32 {
		return fmt.Errorf("serve: snapshot dimensions overflow uint32")
	}

	// String table: length-prefixed names, queries then ads.
	strs := frame.Append(nil, "")
	for q := 0; q < nq; q++ {
		strs.Str(g.Query(q))
	}
	for a := 0; a < na; a++ {
		strs.Str(g.Ad(a))
	}
	strBuf := strs.Bytes()

	// Route section: node → shard, from the shard id lists.
	route := make([]byte, 4*(nq+na))
	for si := range shards {
		for _, q := range shards[si].Queries {
			binary.LittleEndian.PutUint32(route[4*q:], uint32(si))
		}
		for _, a := range shards[si].Ads {
			binary.LittleEndian.PutUint32(route[4*(nq+a):], uint32(si))
		}
	}

	// Directory + totals; segment offsets follow header/strings/route/dir,
	// and the top-k blobs follow every shard's segments.
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
		if err := checkTopKBlobLen(len(p.tkBlob)); err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
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
	if cfg.DisableSpread {
		flags |= flagDisableSpread
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

// WriteSnapshotFileTopK writes the snapshot to a temporary file in path's
// directory, fsyncs it and renames it into place, then fsyncs the
// directory: a server reloading on SIGHUP never observes a half-written
// snapshot, and a power loss after the return never leaves a torn one.
func WriteSnapshotFileTopK(path string, res *core.Result, opts TopKOptions) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := closeSynced(tmp, WriteSnapshotTopK(tmp, res, opts)); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}
