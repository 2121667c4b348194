package serve

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// Incremental snapshot refresh: the write half of making refresh cost
// proportional to the changed region of the graph. A refresh classifies
// shards against the previous snapshot (partition.DiffPlans over the
// fingerprints the directory carries), re-runs only the dirty ones —
// warm-started from the previous scores — and writes the next generation
// by byte-copying every clean shard's score segments out of the old file:
// their CRCs are already in the directory, so reuse pays one read + one
// checksum per segment instead of decode → re-sort → re-encode. A clean
// shard's segment is guaranteed reusable because its fingerprint covers
// node ids, names, and every incident edge with weights: identical
// fingerprint ⇒ identical subgraph under identical global ids ⇒ the
// deterministic per-shard engine would reproduce the identical bytes.

// RefreshStats reports what a RefreshSnapshot write did.
type RefreshStats struct {
	// DirtyShards/CleanShards count the segment pairs encoded vs reused.
	DirtyShards, CleanShards int
	// BytesReencoded is the segment bytes newly encoded from dirty-shard
	// scores; BytesCopied the segment bytes copied from the previous
	// snapshot without decoding.
	BytesReencoded, BytesCopied int64
}

// refreshTopK derives the next generation's top-k section parameters
// from the previous header — a refresh cannot choose its own depth,
// because clean shards' blobs are byte-copied and mixing depths within
// one snapshot would be incoherent — and rejects a bid-term set that
// differs from the one the previous generation's lists were filtered
// with (same reason: the copied blobs bake the old filter in).
func refreshTopK(prev *Snapshot, bids map[string]bool) (topkMeta, error) {
	tk := topkMeta{
		k:       uint32(prev.meta.RewriteTopK),
		topN:    uint32(prev.meta.RewriteTopN),
		bidHash: prev.meta.RewriteBidHash,
	}
	if tk.k > 0 && BidTermsHash(bids) != tk.bidHash {
		return tk, fmt.Errorf("serve: refresh bid-term set differs from the previous generation's precomputed rewrite section (rebuild with simrank -save to change filters)")
	}
	return tk, nil
}

// copyCleanBlob byte-copies shard i's precomputed rewrite blob from the
// previous generation — valid for the same reason segment copies are:
// the blob is position-independent (blob-relative offsets, global ids)
// and a clean shard's pipeline inputs are fingerprint-identical.
func copyCleanBlob(p *shardPayload, prev *Snapshot, i int) error {
	blob, err := prev.segmentBytes("topk", i)
	if err != nil {
		return err
	}
	p.tkBlob, p.tkCRC = blob, prev.dir[i].tkCRC
	return nil
}

// RefreshSnapshot writes the next snapshot generation: res must cover the
// new graph with one ShardScoreSet per shard (core.RunSharded with
// RetainShardScores; shards skipped via RunShards carry id lists only),
// and dirty must be the matching classification (partition.Diff.Dirty).
// Dirty shards' segments are encoded from their frontiers in parallel;
// clean shards' segments are byte-copied from prev, verified against the
// directory CRCs. The precomputed rewrite section follows the same split
// at the depth recorded in prev's header: dirty shards re-run the
// pipeline, clean shards byte-copy their blobs. bids must be the same
// bid-term set prev's section was built with (compared by hash); pass
// nil when prev carries no section. The run configuration must match
// prev's — mixing generations computed under different settings would
// serve incoherent scores. Byte counters cover score segments only.
func RefreshSnapshot(w io.Writer, prev *Snapshot, res *core.Result, dirty []bool, bids map[string]bool) (RefreshStats, error) {
	var st RefreshStats
	if len(res.ShardScores) == 0 {
		return st, fmt.Errorf("serve: refresh needs a RunSharded result with RetainShardScores")
	}
	if len(res.ShardScores) != len(dirty) {
		return st, fmt.Errorf("serve: %d dirty flags for %d shards", len(dirty), len(res.ShardScores))
	}
	if len(res.ShardStats) != len(res.ShardScores) {
		return st, fmt.Errorf("serve: result is missing per-shard stats")
	}
	if err := compatibleConfig(prev, res.Config); err != nil {
		return st, err
	}
	tk, err := refreshTopK(prev, bids)
	if err != nil {
		return st, err
	}

	payloads := make([]shardPayload, len(res.ShardScores))
	var encodeIdx []int
	for i := range res.ShardScores {
		ss := &res.ShardScores[i]
		payloads[i].qIDs, payloads[i].aIDs = ss.QueryIDs, ss.AdIDs
		payloads[i].fp = res.ShardStats[i].Fingerprint
		if dirty[i] {
			if ss.QueryScores == nil || ss.AdScores == nil {
				return st, fmt.Errorf("serve: dirty shard %d has no scores (was it in RunShards?)", i)
			}
			encodeIdx = append(encodeIdx, i)
			st.DirtyShards++
			continue
		}
		// Clean shard: reuse segment i of the previous generation.
		if i >= prev.meta.Shards {
			return st, fmt.Errorf("serve: shard %d marked clean but the previous snapshot has only %d shards",
				i, prev.meta.Shards)
		}
		if payloads[i].fp != prev.dir[i].fp {
			return st, fmt.Errorf("serve: shard %d marked clean but its fingerprint differs from the previous generation's", i)
		}
		var err error
		e := &prev.dir[i]
		if payloads[i].qSeg, err = prev.segmentBytes("query", i); err != nil {
			return st, err
		}
		if payloads[i].aSeg, err = prev.segmentBytes("ad", i); err != nil {
			return st, err
		}
		payloads[i].qCRC, payloads[i].aCRC = e.qCRC, e.aCRC
		if err := copyCleanBlob(&payloads[i], prev, i); err != nil {
			return st, err
		}
		st.CleanShards++
		st.BytesCopied += int64(len(payloads[i].qSeg) + len(payloads[i].aSeg))
	}

	encodePayloads(payloads, encodeIdx, res.ShardScores)
	if err := fillTopKBlobs(payloads, encodeIdx, res, tk, bids); err != nil {
		return st, err
	}
	for _, i := range encodeIdx {
		st.BytesReencoded += int64(len(payloads[i].qSeg) + len(payloads[i].aSeg))
	}

	// Iterations: a refresh ran only its dirty shards, so the horizon the
	// snapshot advertises is the deeper of the two generations'.
	iters := res.Iterations
	if prev.meta.Iterations > iters {
		iters = prev.meta.Iterations
	}
	err = writeAssembled(w, res, res.Config, payloads, genInfo{
		iterations:  iters,
		converged:   res.Converged && prev.meta.Converged,
		generatedAt: time.Now(),
		dirtyShards: uint32(st.DirtyShards),
	}, tk)
	return st, err
}

// ShardSegment is one shard's encoded score segments in wire form — the
// exact bytes a snapshot stores for that shard, with their CRCs. It is
// the unit of exchange between a refresh coordinator and a remote worker:
// a worker encodes one from its shard run, the coordinator validates the
// CRCs and hands the bytes to AssembleRefresh unchanged.
type ShardSegment struct {
	QuerySeg, AdSeg []byte
	QueryCRC, AdCRC uint32
}

// EncodeShardSegment encodes one shard's compacted score frontiers into
// segment wire form. qIDs/aIDs are the shard's ascending global node ids
// (nil for an identity/monolithic shard); the frontiers are local-id
// keyed, exactly as a per-shard engine produces them.
func EncodeShardSegment(q, a *sparse.PairFrontier, qIDs, aIDs []int) ShardSegment {
	var s ShardSegment
	s.QuerySeg = encodeSegment(q, qIDs)
	s.AdSeg = encodeSegment(a, aIDs)
	s.QueryCRC = crc32.ChecksumIEEE(s.QuerySeg)
	s.AdCRC = crc32.ChecksumIEEE(s.AdSeg)
	return s
}

// Validate re-checksums the segment bytes against the recorded CRCs —
// the integrity gate a coordinator applies to bytes that crossed a
// network before letting them anywhere near a snapshot.
func (s *ShardSegment) Validate() error {
	if got := crc32.ChecksumIEEE(s.QuerySeg); got != s.QueryCRC {
		return fmt.Errorf("serve: shard segment query CRC mismatch (got %08x want %08x)", got, s.QueryCRC)
	}
	if got := crc32.ChecksumIEEE(s.AdSeg); got != s.AdCRC {
		return fmt.Errorf("serve: shard segment ad CRC mismatch (got %08x want %08x)", got, s.AdCRC)
	}
	if len(s.QuerySeg)%pairRecordSize != 0 || len(s.AdSeg)%pairRecordSize != 0 {
		return fmt.Errorf("serve: shard segment length not a multiple of the pair record size")
	}
	return nil
}

// AssembleRefresh writes the next snapshot generation from pre-encoded
// dirty-shard segments — the distributed counterpart of RefreshSnapshot.
// plan must be the projected refresh plan (partition.DiffPlans) over g,
// dirty its classification, and segs one entry per shard with non-nil
// segments exactly at the dirty indices (a worker's response, or a local
// fallback's EncodeShardSegment). Clean shards byte-copy from prev under
// the same fingerprint guard as RefreshSnapshot; every provided segment
// is CRC-validated before use. Dirty shards' precomputed rewrite blobs
// are rebuilt here, at the coordinator, from the validated segment
// bytes (workers ship scores, not filter decisions); clean shards'
// blobs are byte-copied; bids follows the RefreshSnapshot contract.
// iterations/converged aggregate the dirty-shard runs (max /
// logical-AND semantics against prev are applied here, matching the
// local path).
func AssembleRefresh(w io.Writer, prev *Snapshot, g *clickgraph.Graph, cfg core.Config, plan *partition.Plan, dirty []bool, segs []*ShardSegment, iterations int, converged bool, bids map[string]bool) (RefreshStats, error) {
	var st RefreshStats
	if len(plan.Shards) != len(dirty) || len(plan.Shards) != len(segs) {
		return st, fmt.Errorf("serve: assemble got %d shards, %d dirty flags, %d segments",
			len(plan.Shards), len(dirty), len(segs))
	}
	if err := compatibleConfig(prev, cfg); err != nil {
		return st, err
	}
	tk, err := refreshTopK(prev, bids)
	if err != nil {
		return st, err
	}

	payloads := make([]shardPayload, len(plan.Shards))
	var dirtyIdx []int
	for i := range plan.Shards {
		sh := &plan.Shards[i]
		payloads[i].qIDs, payloads[i].aIDs = sh.Queries, sh.Ads
		payloads[i].fp = sh.Fingerprint
		if dirty[i] {
			seg := segs[i]
			if seg == nil {
				return st, fmt.Errorf("serve: dirty shard %d has no segment", i)
			}
			if err := seg.Validate(); err != nil {
				return st, fmt.Errorf("serve: shard %d: %w", i, err)
			}
			payloads[i].qSeg, payloads[i].aSeg = seg.QuerySeg, seg.AdSeg
			payloads[i].qCRC, payloads[i].aCRC = seg.QueryCRC, seg.AdCRC
			dirtyIdx = append(dirtyIdx, i)
			st.DirtyShards++
			st.BytesReencoded += int64(len(seg.QuerySeg) + len(seg.AdSeg))
			continue
		}
		if segs[i] != nil {
			return st, fmt.Errorf("serve: clean shard %d has a segment (dirty mask out of sync?)", i)
		}
		if i >= prev.meta.Shards {
			return st, fmt.Errorf("serve: shard %d marked clean but the previous snapshot has only %d shards",
				i, prev.meta.Shards)
		}
		if payloads[i].fp != prev.dir[i].fp {
			return st, fmt.Errorf("serve: shard %d marked clean but its fingerprint differs from the previous generation's", i)
		}
		var err error
		e := &prev.dir[i]
		if payloads[i].qSeg, err = prev.segmentBytes("query", i); err != nil {
			return st, err
		}
		if payloads[i].aSeg, err = prev.segmentBytes("ad", i); err != nil {
			return st, err
		}
		payloads[i].qCRC, payloads[i].aCRC = e.qCRC, e.aCRC
		if err := copyCleanBlob(&payloads[i], prev, i); err != nil {
			return st, err
		}
		st.CleanShards++
		st.BytesCopied += int64(len(payloads[i].qSeg) + len(payloads[i].aSeg))
	}
	if err := fillTopKBlobs(payloads, dirtyIdx, g, tk, bids); err != nil {
		return st, err
	}

	iters := iterations
	if prev.meta.Iterations > iters {
		iters = prev.meta.Iterations
	}
	err = writeAssembled(w, g, cfg, payloads, genInfo{
		iterations:  iters,
		converged:   converged && prev.meta.Converged,
		generatedAt: time.Now(),
		dirtyShards: uint32(st.DirtyShards),
	}, tk)
	return st, err
}

// compatibleConfig rejects a refresh whose engine configuration differs
// from the one the previous generation was computed with, as far as the
// header records it.
func compatibleConfig(prev *Snapshot, cfg core.Config) error {
	m := prev.Meta()
	switch {
	case cfg.Variant != m.Variant:
		return fmt.Errorf("serve: refresh variant %v != snapshot %v", cfg.Variant, m.Variant)
	case cfg.C1 != m.C1 || cfg.C2 != m.C2:
		return fmt.Errorf("serve: refresh decay (%v,%v) != snapshot (%v,%v)", cfg.C1, cfg.C2, m.C1, m.C2)
	case cfg.StrictEvidence != m.StrictEvidence,
		cfg.DisableSpread != m.DisableSpread,
		cfg.Channel != m.Channel,
		cfg.EvidenceForm != m.EvidenceForm,
		cfg.PruneEpsilon != m.PruneEpsilon:
		return fmt.Errorf("serve: refresh run settings differ from the snapshot's (strict/spread/channel/evidence/prune)")
	}
	return nil
}

// RefreshSnapshotFile writes the refreshed snapshot to a temporary file
// in path's directory and renames it into place. path may equal the file
// prev was opened from: the copy is read before the rename replaces it.
func RefreshSnapshotFile(path string, prev *Snapshot, res *core.Result, dirty []bool, bids map[string]bool) (RefreshStats, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return RefreshStats{}, err
	}
	defer os.Remove(tmp.Name())
	st, err := RefreshSnapshot(tmp, prev, res, dirty, bids)
	if err != nil {
		tmp.Close()
		return st, err
	}
	if err := tmp.Close(); err != nil {
		return st, err
	}
	return st, os.Rename(tmp.Name(), path)
}

// RunRefresh is the compute side of one refresh step: diff the new graph
// against the previous snapshot, run only the dirty shards, and return
// the partial result ready for RefreshSnapshot, together with the
// classification. workers <= 0 selects GOMAXPROCS. The engine
// configuration is taken from the previous snapshot's header, keeping
// generations coherent by construction.
//
// Dirty shards are warm-started from the previous scores only when the
// recorded configuration converges by tolerance. Under a fixed-iteration
// contract (Tolerance == 0) a warm start would be incoherent — a dirty
// shard seeded with generation-k scores and iterated k more would sit at
// an effective depth of 2k while its clean neighbors stay at k — whereas
// a cold re-run at the same fixed count reproduces exactly what a full
// rebuild would, bit for bit. So Tolerance > 0 buys the warm-start
// speedup; Tolerance == 0 buys exactness. Both keep the dirty-only
// scheduling and the segment-copy savings.
func RunRefresh(g *clickgraph.Graph, prev *Snapshot, workers int) (*core.Result, *partition.Diff, error) {
	return RunRefreshContext(context.Background(), g, prev, workers)
}

// RunRefreshContext is RunRefresh with cancellation: ctx is plumbed into
// the shard pool (core.ShardOptions.Context), so a cancelled context
// stops the dirty-shard run at the next shard boundary and the refresh
// returns ctx's error with nothing written. The ingest controller uses
// this to abandon an in-flight fold on SIGTERM — the serving snapshot
// and the WAL cursor are untouched, and the fold simply re-runs after
// restart.
func RunRefreshContext(ctx context.Context, g *clickgraph.Graph, prev *Snapshot, workers int) (*core.Result, *partition.Diff, error) {
	diff, err := partition.DiffPlans(prev, g)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, diff, err
	}
	cfg := prev.Config()
	opt := core.ShardOptions{
		Workers:           workers,
		RetainShardScores: true,
		RunShards:         diff.Dirty,
		Context:           ctx,
	}
	if cfg.Tolerance > 0 {
		opt.WarmStart = prev
	}
	res, err := core.RunSharded(g, cfg, diff.Plan, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, diff, nil
}
