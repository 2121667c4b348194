package serve

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// Incremental snapshot refresh: the write half of making refresh cost
// proportional to the changed region of the graph. A refresh classifies
// shards against the previous snapshot (partition.DiffPlans over the
// fingerprints the directory carries), re-runs only the dirty ones from
// the identity, as a full build would, and writes the next generation by
// byte-copying every clean shard's score segments out of the old file:
// their CRCs are already in the directory, so reuse pays one read + one
// checksum per segment instead of decode → re-sort → re-encode. A clean
// shard's segment is guaranteed reusable because its fingerprint covers
// node ids, names, and every incident edge with weights: identical
// fingerprint ⇒ identical subgraph under identical global ids ⇒ the
// deterministic per-shard engine would reproduce the identical bytes.
//
// There is one refresh path, Refresh: it opens the serving snapshot
// (restoring it from the journal when it no longer opens), adopts it as
// a rollback target and diffs; runDirty runs the dirty shards on this
// process's pool and encodes their segments, assembleRefresh lays out the
// next snapshot, and the generation store commits and publishes it.
// `simrank -refresh` and the ingest controller's fold differ only in the
// pool width they pass.

// RefreshStats reports what a refresh's write did.
type RefreshStats struct {
	// DirtyShards/CleanShards count the segment pairs encoded vs reused.
	DirtyShards, CleanShards int
	// BytesReencoded is the segment bytes newly encoded from dirty-shard
	// scores; BytesCopied the segment bytes copied from the previous
	// snapshot without decoding.
	BytesReencoded, BytesCopied int64
}

// shardSegment is one shard's encoded score segments — the exact bytes a
// snapshot stores for that shard, with their CRCs. Every snapshot is
// assembled from them: a full build encodes one per shard, a refresh one
// per dirty shard, and the assembler stores the bytes unchanged.
type shardSegment struct {
	QuerySeg, AdSeg []byte
	QueryCRC, AdCRC uint32
}

// encodeShardSegment encodes shard sh's rows of a run's stitched score
// frontiers into segment form: the one place frontiers become segment
// bytes.
func encodeShardSegment(q, a *sparse.PairFrontier, sh *partition.Shard) shardSegment {
	var s shardSegment
	s.QuerySeg = encodeSegment(q, sh.Queries)
	s.AdSeg = encodeSegment(a, sh.Ads)
	s.QueryCRC = crc32.ChecksumIEEE(s.QuerySeg)
	s.AdCRC = crc32.ChecksumIEEE(s.AdSeg)
	return s
}

// runDirty runs the shards of plan (the projected refresh plan over g,
// partition.DiffPlans) that dirty marks, one engine per shard on a pool
// of the given width (<= 0 selects GOMAXPROCS), and encodes their rows of
// the stitched frontiers through the run's plan, as WriteSnapshotTopK
// does, in parallel; segs is nil at every clean shard. The engine
// configuration is taken from prev's header, keeping generations
// coherent by construction, and every dirty shard runs from the identity
// under it, so the next generation is, outside its header's generation
// fields, what WriteSnapshotTopK writes for a cold RunSharded of the whole
// plan — under any configuration, converging by tolerance or not. A
// cancelled ctx stops the run at the next shard boundary with ctx's error.
func runDirty(ctx context.Context, g *clickgraph.Graph, prev *Snapshot, plan *partition.Plan, dirty []bool, workers int) (*core.Result, []*shardSegment, error) {
	res, err := core.RunSharded(g, prev.Config(), plan, core.ShardOptions{
		Workers:   workers,
		RunShards: dirty,
		Context:   ctx,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, encodeShards(res), nil
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

// assembleRefresh writes the next snapshot generation from runDirty's
// output through the assembler a full build uses: run is the engine run
// over the projected refresh plan (partition.DiffPlans) over g, which it
// records (run.Plan), and segs its encoded dirty shards, nil at the
// shards it skipped. Clean shards' segments are byte-copied from
// prev, verified against the directory CRCs, under a fingerprint guard.
// The precomputed rewrite section follows the same split at the depth
// recorded in prev's header: dirty shards' blobs are rebuilt from their
// segment bytes, clean shards' blobs are byte-copied — valid for the same
// reason segment copies are: a blob is position-independent (blob-relative
// offsets, global ids) and a clean shard's pipeline inputs are
// fingerprint-identical. bids must be the same bid-term set prev's section
// was built with (compared by hash); pass nil when prev carries no
// section. The new generation records prev's run configuration, the one
// its dirty shards ran under.
func assembleRefresh(w io.Writer, prev *Snapshot, g *clickgraph.Graph, run *core.Result, segs []*shardSegment, bids map[string]bool) (RefreshStats, error) {
	tk, err := refreshTopK(prev, bids)
	if err != nil {
		return RefreshStats{}, err
	}
	dirtyShards := 0
	for _, seg := range segs {
		if seg != nil {
			dirtyShards++
		}
	}
	// Iterations: a refresh ran only its dirty shards, so the horizon the
	// snapshot advertises is the deeper of the two generations'.
	return assembleSnapshot(w, g, prev.Config(), run.Plan.Shards, segs, prev, tk, bids, genInfo{
		iterations:  max(run.Iterations, prev.meta.Iterations),
		converged:   run.Converged && prev.meta.Converged,
		generatedAt: time.Now(),
		dirtyShards: uint32(dirtyShards),
	})
}

// checkpointWriter fires its hook once, after the first write has
// reached the journal's temp file — the "refresh died with a partial
// snapshot on disk" instant.
type checkpointWriter struct {
	w     io.Writer
	hook  func() error
	fired bool
}

func (cw *checkpointWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if err == nil && !cw.fired {
		cw.fired = true
		if herr := cw.hook(); herr != nil {
			return n, herr
		}
	}
	return n, err
}

// RefreshResult reports what one Refresh did.
type RefreshResult struct {
	// Restored is the generation re-published because the serving file
	// did not open; nil when it opened.
	Restored *Generation
	// Diff classifies g's shards against the serving snapshot.
	Diff *partition.Diff
	// Published is the generation now serving; nil when no shard was
	// dirty and nothing was written.
	Published *Generation
	Stats     RefreshStats
}

// Refresh brings gs's serving snapshot up to graph g as one journal
// transaction. It opens the serving snapshot (re-publishing the last good
// generation when the file no longer opens), adopts it as a generation so
// even the first refresh has a rollback target, and diffs g against it
// (partition.DiffPlans). With no dirty shard it writes nothing: the
// serving snapshot already is g's. Otherwise the dirty shards run in this
// process on a pool of the given width (<= 0 selects GOMAXPROCS; the
// bytes do not depend on it), assembleRefresh writes the next snapshot
// into the journal, and the committed generation is published to the
// serving path. checkpoint,
// when non-nil, is called at "pre-commit" (segments computed, nothing
// written), "commit:mid-write" (first bytes in the journal temp file),
// "pre-publish" (generation journaled) and "post-publish"; an error from
// it aborts the refresh there, leaving the disk as a crash at that
// instant would — the seam the chaos suites drive and pathbench times
// folds through. A failure at any point, cancellation included, leaves
// the serving path and every earlier generation untouched (bar a
// restore); the result says how far the refresh got. The caller holds
// gs's Lock and prunes after.
func Refresh(ctx context.Context, gs *GenerationStore, g *clickgraph.Graph, workers int, bids map[string]bool, checkpoint func(stage string) error) (RefreshResult, error) {
	var res RefreshResult
	if checkpoint == nil {
		checkpoint = func(string) error { return nil }
	}
	prev, restored, err := gs.openServing()
	res.Restored = restored
	if err != nil {
		return res, fmt.Errorf("serve: refresh: %w", err)
	}
	defer prev.Close()
	if _, err := gs.Adopt(); err != nil {
		return res, fmt.Errorf("serve: refresh: adopting the serving snapshot: %w", err)
	}
	diff, err := partition.DiffPlans(prev, g)
	if err != nil {
		return res, fmt.Errorf("serve: refresh: diff: %w", err)
	}
	res.Diff = diff
	if diff.DirtyShards == 0 {
		return res, nil
	}

	run, segs, err := runDirty(ctx, g, prev, diff.Plan, diff.Dirty, workers)
	if err != nil {
		return res, fmt.Errorf("serve: refresh: running dirty shards: %w", err)
	}
	if err := checkpoint("pre-commit"); err != nil {
		return res, err
	}
	gen, err := gs.Commit(diff.DirtyShards, diff.Plan.Fingerprint(), func(w io.Writer) (err error) {
		cw := &checkpointWriter{w: w, hook: func() error { return checkpoint("commit:mid-write") }}
		res.Stats, err = assembleRefresh(cw, prev, g, run, segs, bids)
		return err
	})
	if err != nil {
		return res, fmt.Errorf("serve: refresh: journal commit: %w", err)
	}
	if err := checkpoint("pre-publish"); err != nil {
		return res, err
	}
	if err := gs.Publish(gen); err != nil {
		return res, fmt.Errorf("serve: refresh: publish: %w", err)
	}
	res.Published = gen
	if err := checkpoint("post-publish"); err != nil {
		return res, err
	}
	return res, nil
}
