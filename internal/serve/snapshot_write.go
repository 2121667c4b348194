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

	"simrankpp/internal/core"
	"simrankpp/internal/frame"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// snapshotSources decomposes a result into per-shard score sets: the
// retained shard outputs of a RunSharded(..., RetainShardScores) run, or
// the stitched frontiers as one identity shard (nil id lists).
func snapshotSources(res *core.Result) []core.ShardScoreSet {
	if len(res.ShardScores) > 0 {
		return res.ShardScores
	}
	return []core.ShardScoreSet{{QueryScores: res.QueryScores, AdScores: res.AdScores}}
}

// encodeSegment writes one pair frontier out as the sorted
// binary record stream, remapping ids through the ascending local→global
// map when given. Row-major frontier order is segment order — a monotone
// map keeps rows, and columns within a row, ascending — so nothing sorts.
func encodeSegment(f *sparse.PairFrontier, ids []int) []byte {
	buf := make([]byte, 0, f.Len()*pairRecordSize)
	f.Range(func(i, j int, v float64) bool {
		if ids != nil {
			i, j = ids[i], ids[j]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		return true
	})
	return buf
}

// shardPayload is one shard's encoded segments plus its directory
// metadata, ready for assembly. AssembleRefresh fills it from a shard
// run's segments and by byte-copying a previous snapshot;
// WriteSnapshotTopK by encoding frontiers.
type shardPayload struct {
	qSeg, aSeg []byte
	qCRC, aCRC uint32
	fp         uint64
	// tkBlob is the shard's precomputed top-k rewrite blob (empty when
	// the snapshot carries no section).
	tkBlob []byte
	tkCRC  uint32
	// qIDs/aIDs are the shard's global node ids for the route section
	// (nil means identity — the single-shard monolithic case).
	qIDs, aIDs []int
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

// shardFingerprints extracts per-shard fingerprints from a sharded run's
// stats (plan order, matching ShardScores), or computes the whole-graph
// fingerprint for a monolithic result.
func shardFingerprints(res *core.Result, shards int) ([]uint64, error) {
	if shards == 1 && len(res.ShardScores) == 0 {
		return []uint64{partition.GraphFingerprint(res.Graph)}, nil
	}
	if len(res.ShardStats) != shards {
		return nil, fmt.Errorf("serve: result has %d shard stats for %d segments; snapshots need RunSharded results (or a monolithic run)",
			len(res.ShardStats), shards)
	}
	fps := make([]uint64, shards)
	for i := range fps {
		fps[i] = res.ShardStats[i].Fingerprint
	}
	return fps, nil
}

// WriteSnapshotTopK serializes res in the snapshot format, including the
// precomputed rewrite section opts configures (K 0 writes none). A
// result carrying retained shard scores (core.ShardOptions.RetainShardScores)
// writes one segment pair per shard, encoded in parallel directly from
// the shard engines' local frontiers; any other result writes a single
// segment pair. Results of a partial (ShardOptions.RunShards) run are
// rejected — their missing shards can only be completed by a refresh
// (AssembleRefresh).
func WriteSnapshotTopK(w io.Writer, res *core.Result, opts TopKOptions) error {
	srcs := snapshotSources(res)
	fps, err := shardFingerprints(res, len(srcs))
	if err != nil {
		return err
	}
	payloads := make([]shardPayload, len(srcs))
	for i := range srcs {
		if srcs[i].QueryScores == nil || srcs[i].AdScores == nil {
			return fmt.Errorf("serve: shard %d has no scores (partial refresh run?); use AssembleRefresh", i)
		}
		payloads[i].qIDs, payloads[i].aIDs = srcs[i].QueryIDs, srcs[i].AdIDs
		payloads[i].fp = fps[i]
	}

	all := make([]int, len(srcs))
	for i := range all {
		all[i] = i
	}
	encodePayloads(payloads, all, srcs)
	tk := opts.meta()
	if err := fillTopKBlobs(payloads, all, res, tk, opts.BidTerms); err != nil {
		return err
	}

	return writeAssembled(w, res, res.Config, payloads, genInfo{
		iterations:  res.Iterations,
		converged:   res.Converged,
		generatedAt: time.Now(),
		dirtyShards: fullBuildSentinel,
	}, tk)
}

// encodePayloads fills the given payload indices' segments and CRCs from
// their score frontiers, one encoder per shard on a bounded pool.
func encodePayloads(payloads []shardPayload, idx []int, scores []core.ShardScoreSet) {
	parallelFor(len(idx), func(k int) {
		p := &payloads[idx[k]]
		p.qSeg = encodeSegment(scores[idx[k]].QueryScores, p.qIDs)
		p.aSeg = encodeSegment(scores[idx[k]].AdScores, p.aIDs)
		p.qCRC = crc32.ChecksumIEEE(p.qSeg)
		p.aCRC = crc32.ChecksumIEEE(p.aSeg)
	})
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

// nodeNames is the naming surface writeAssembled reads — the graph
// dimensions plus id→name lookups. Both *core.Result and
// *clickgraph.Graph satisfy it, which is what lets a distributed refresh
// (which has a graph and pre-encoded segments, but no stitched Result)
// assemble the same bytes the local path writes.
type nodeNames interface {
	NumQueries() int
	NumAds() int
	Query(id int) string
	Ad(id int) string
}

// topkMeta is the precomputed rewrite section's header parameters: list
// depth k, the candidate-pool size the lists were filtered from, and the
// bid-term-set hash. A zero k means no section (every blob empty).
type topkMeta struct {
	k, topN uint32
	bidHash uint64
}

// writeAssembled lays out and writes a complete snapshot from per-shard
// payloads: string table and route map from the names source, directory
// and header from the payloads, cfg, gen and the top-k section
// parameters.
func writeAssembled(w io.Writer, names nodeNames, cfg core.Config, payloads []shardPayload, gen genInfo, tk topkMeta) error {
	nq, na := names.NumQueries(), names.NumAds()
	if len(payloads) > 1<<30 || uint64(nq) > math.MaxUint32 || uint64(na) > math.MaxUint32 {
		return fmt.Errorf("serve: snapshot dimensions overflow uint32")
	}

	// String table: length-prefixed names, queries then ads.
	strs := frame.Append(nil, "")
	for q := 0; q < nq; q++ {
		strs.Str(names.Query(q))
	}
	for a := 0; a < na; a++ {
		strs.Str(names.Ad(a))
	}
	strBuf := strs.Bytes()

	// Route section: node → shard, from the shard id lists.
	route := make([]byte, 4*(nq+na))
	for si := range payloads {
		for _, q := range payloads[si].qIDs {
			binary.LittleEndian.PutUint32(route[4*q:], uint32(si))
		}
		for _, a := range payloads[si].aIDs {
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
		tkOff += uint64(len(payloads[i].qSeg) + len(payloads[i].aSeg))
	}
	entries := frame.Append(make([]byte, 0, dirEntrySize*len(payloads)), "")
	var totalQ, totalA uint64
	for i := range payloads {
		p := &payloads[i]
		if err := checkTopKBlobLen(len(p.tkBlob)); err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
		qPairs := uint64(len(p.qSeg) / pairRecordSize)
		aPairs := uint64(len(p.aSeg) / pairRecordSize)
		entries.U64(segOff)
		entries.U64(segOff + uint64(len(p.qSeg)))
		entries.U64(qPairs)
		entries.U64(aPairs)
		entries.U32(p.qCRC)
		entries.U32(p.aCRC)
		entries.U64(p.fp)
		entries.U64(tkOff)
		entries.U32(uint32(len(p.tkBlob)))
		entries.U32(p.tkCRC)
		segOff += uint64(len(p.qSeg) + len(p.aSeg))
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
		if _, err := w.Write(payloads[i].qSeg); err != nil {
			return err
		}
		if _, err := w.Write(payloads[i].aSeg); err != nil {
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
// directory and renames it into place, so a server reloading on SIGHUP
// never observes a half-written snapshot.
func WriteSnapshotFileTopK(path string, res *core.Result, opts TopKOptions) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshotTopK(tmp, res, opts); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
