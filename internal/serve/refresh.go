package serve

import (
	"context"
	"fmt"
	"io"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
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
// process's pool, assembleRefresh encodes their segments into the next
// snapshot's journal temp beside the clean shards' copied bytes, and the
// generation store commits and publishes it.
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

// runDirty runs the shards of plan (the projected refresh plan over g,
// partition.DiffPlans) that dirty marks, one engine per shard on a pool
// of the given width (<= 0 selects GOMAXPROCS); the clean shards are
// marked Skipped in the result. The engine configuration is taken from
// prev's header, keeping generations coherent by construction, and every
// dirty shard runs from the identity under it, so the next generation is,
// outside its header's generation fields, what WriteSnapshotTopK writes
// for a cold RunSharded of the whole plan — under any configuration,
// converging by tolerance or not. A cancelled ctx stops the run at the
// next shard boundary with ctx's error.
func runDirty(ctx context.Context, g *clickgraph.Graph, prev *Snapshot, plan *partition.Plan, dirty []bool, workers int) (*core.Result, error) {
	return core.RunSharded(g, prev.Config(), plan, core.ShardOptions{
		Workers:   workers,
		RunShards: dirty,
		Context:   ctx,
	})
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
// run through the assembler a full build uses, and returns the file's
// CRC32: run is the engine run over the projected refresh plan
// (partition.DiffPlans), which it records (run.Plan); its dirty shards
// are encoded from the stitched frontiers, and the shards it skipped have
// their segments byte-copied from prev, verified against the directory
// CRCs, under a fingerprint guard. The precomputed rewrite section
// follows the same split at the depth recorded in prev's header: dirty
// shards' blobs are rebuilt from their segment bytes, clean shards' blobs
// are byte-copied — valid for the same reason segment copies are: a blob
// is position-independent (blob-relative offsets, global ids) and a clean
// shard's pipeline inputs are fingerprint-identical. bids must be the
// same bid-term set prev's section was built with (compared by hash);
// pass nil when prev carries no section. The new generation records
// prev's run configuration, the one its dirty shards ran under.
func assembleRefresh(w io.WriterAt, prev *Snapshot, run *core.Result, bids map[string]bool) (RefreshStats, uint32, error) {
	tk, err := refreshTopK(prev, bids)
	if err != nil {
		return RefreshStats{}, 0, err
	}
	dirtyShards := 0
	for _, st := range run.ShardStats {
		if !st.Skipped {
			dirtyShards++
		}
	}
	// Iterations: a refresh ran only its dirty shards, so the horizon the
	// snapshot advertises is the deeper of the two generations'.
	return assembleSnapshot(w, run, prev.Config(), prev, tk, bids, genInfo{
		iterations:  max(run.Iterations, prev.meta.Iterations),
		converged:   run.Converged && prev.meta.Converged,
		generatedAt: time.Now(),
		dirtyShards: uint32(dirtyShards),
	})
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
// when non-nil, is called at "pre-commit" (scores computed, nothing
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

	run, err := runDirty(ctx, g, prev, diff.Plan, diff.Dirty, workers)
	if err != nil {
		return res, fmt.Errorf("serve: refresh: running dirty shards: %w", err)
	}
	if err := checkpoint("pre-commit"); err != nil {
		return res, err
	}
	gen, err := gs.Commit(diff.DirtyShards, diff.Plan.Fingerprint(), func(w io.WriterAt) (crc uint32, err error) {
		res.Stats, crc, err = assembleRefresh(w, prev, run, bids)
		return crc, err
	}, checkpoint)
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
