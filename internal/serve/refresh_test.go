package serve

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
)

// refreshGraph builds a deterministic 4-cluster graph with every node
// interned up front (stable ids across rebuilds — the discipline a real
// ingest pipeline needs for incremental refresh to bite) and per-cluster
// edge weights derived from seeds[c], so bumping one cluster's seed
// models a 1-cluster churn step. Edges connect q to a of equal parity, so
// each cluster is exactly two connected components with stable structure.
func refreshGraph(t *testing.T, seeds [4]int) *clickgraph.Graph {
	return clusterGraph(t, seeds, 10,
		func(c, q int) string { return fmt.Sprintf("c%d-q%d", c, q) },
		func(q, a int) bool { return q%2 == a%2 })
}

// clusterGraph is the fixture behind refreshGraph and stemGraph: four
// clusters of nq queries (named by queryName) and 8 ads, with an edge
// wherever linked(q, a) holds.
func clusterGraph(t *testing.T, seeds [4]int, nq int, queryName func(c, q int) string, linked func(q, a int) bool) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	for c := 0; c < 4; c++ {
		for q := 0; q < nq; q++ {
			b.AddQuery(queryName(c, q))
		}
		for a := 0; a < 8; a++ {
			b.AddAd(fmt.Sprintf("c%d-a%d", c, a))
		}
	}
	for c := 0; c < 4; c++ {
		for q := 0; q < nq; q++ {
			for a := 0; a < 8; a++ {
				if !linked(q, a) {
					continue
				}
				clicks := int64((q*7+a*3+seeds[c])%9 + 1)
				err := b.AddEdge(queryName(c, q), fmt.Sprintf("c%d-a%d", c, a),
					clickgraph.EdgeWeights{
						Impressions:       clicks * 3,
						Clicks:            clicks,
						ExpectedClickRate: float64((q*5+a*11+seeds[c])%100) / 100,
					})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

// refreshCfg converges tightly, so runs of one graph under different shard
// plans, each shard stopping at its own convergence, land on the same
// fixpoint to well below the assertion tolerance.
func refreshCfg() core.Config {
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.Channel = core.ChannelClicks
	cfg.Iterations = 40
	cfg.Tolerance = 1e-10
	cfg.PruneEpsilon = 1e-8
	return cfg
}

// buildGeneration runs g sharded (scores retained) and snapshots it.
func buildGeneration(t *testing.T, g *clickgraph.Graph, cfg core.Config) (*core.Result, []byte, *Snapshot) {
	t.Helper()
	plan := partition.ComponentPlan(g)
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, res, DefaultRewriteTopK)
	snap, err := NewSnapshot(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return res, data, snap
}

// runStep is the compute half of a refresh step: diff g against prev and
// run the dirty shards on a pool of the given width, as Refresh does.
func runStep(t *testing.T, g *clickgraph.Graph, prev *Snapshot, workers int) (*core.Result, *partition.Diff) {
	t.Helper()
	diff, err := partition.DiffPlans(prev, g)
	if err != nil {
		t.Fatalf("DiffPlans: %v", err)
	}
	res, err := runDirty(context.Background(), g, prev, diff.Plan, diff.Dirty, workers)
	if err != nil {
		t.Fatalf("runDirty: %v", err)
	}
	return res, diff
}

// refreshBytes runs one refresh step in memory.
func refreshBytes(t *testing.T, g *clickgraph.Graph, prev *Snapshot) (*core.Result, *partition.Diff, RefreshStats, []byte) {
	t.Helper()
	run, diff := runStep(t, g, prev, 3)
	var buf imageBuffer
	st, err := assembleRefresh(&buf, prev, run, nil)
	if err != nil {
		t.Fatalf("assembleRefresh: %v", err)
	}
	return run, diff, st, buf.Bytes()
}

// TestRefreshZeroDirtyByteIdentical pins the exactness contract's second
// half: refreshing against an unchanged graph recomputes nothing,
// re-encodes nothing, and reproduces the previous snapshot byte for byte
// outside the header (the header differs only in generation metadata).
func TestRefreshZeroDirtyByteIdentical(t *testing.T) {
	cfg := refreshCfg()
	seeds := [4]int{1, 2, 3, 4}
	_, prevBytes, prev := buildGeneration(t, refreshGraph(t, seeds), cfg)

	run, diff, st, got := refreshBytes(t, refreshGraph(t, seeds), prev)
	if diff.DirtyShards != 0 || st.DirtyShards != 0 {
		t.Fatalf("identical graph classified %d shards dirty", diff.DirtyShards)
	}
	if st.BytesReencoded != 0 || st.BytesCopied == 0 {
		t.Fatalf("zero-dirty refresh re-encoded %d bytes, copied %d", st.BytesReencoded, st.BytesCopied)
	}
	for i, sst := range run.ShardStats {
		if !sst.Skipped {
			t.Fatalf("zero-dirty refresh computed scores for shard %d", i)
		}
	}
	if !bytes.Equal(got[headerSize:], prevBytes[headerSize:]) {
		t.Fatal("zero-dirty refresh payload differs from the previous snapshot")
	}
	snap, err := NewSnapshot(bytes.NewReader(got), int64(len(got)))
	if err != nil {
		t.Fatalf("refreshed snapshot does not open: %v", err)
	}
	if m := snap.Meta(); m.LastRefreshDirty != 0 {
		t.Errorf("LastRefreshDirty = %d, want 0", m.LastRefreshDirty)
	}
	if prev.Meta().LastRefreshDirty != -1 {
		t.Errorf("full build LastRefreshDirty = %d, want -1", prev.Meta().LastRefreshDirty)
	}
	if snap.Meta().Fingerprint != prev.Meta().Fingerprint {
		t.Errorf("generation fingerprint changed on an identical graph")
	}
}

// TestRefreshChurnedClusterSegmentReuse pins the tentpole behavior on a
// real churn step: only the churned cluster's shards are recomputed,
// clean shards' segments are byte-copied from the previous file, and the
// refreshed snapshot's scores match a full rebuild of the new graph under
// its own component plan to within the convergence tolerance.
func TestRefreshChurnedClusterSegmentReuse(t *testing.T) {
	cfg := refreshCfg()
	base := refreshGraph(t, [4]int{1, 2, 3, 4})
	_, prevBytes, prev := buildGeneration(t, base, cfg)

	churned := refreshGraph(t, [4]int{1, 2, 99, 4}) // cluster 2 rewritten
	run, diff, st, got := refreshBytes(t, churned, prev)

	// Cluster 2 is two components → two dirty shards; the other six stay
	// clean.
	if diff.DirtyShards != 2 || diff.CleanShards != prev.NumShards()-2 {
		t.Fatalf("classified %d dirty / %d clean, want 2 / %d",
			diff.DirtyShards, diff.CleanShards, prev.NumShards()-2)
	}
	if st.BytesCopied == 0 || st.BytesReencoded == 0 {
		t.Fatalf("stats = %+v: expected both copied and re-encoded bytes", st)
	}
	snap, err := NewSnapshot(bytes.NewReader(got), int64(len(got)))
	if err != nil {
		t.Fatalf("refreshed snapshot does not open: %v", err)
	}
	if err := snap.PreloadAll(); err != nil {
		t.Fatalf("refreshed snapshot fails verification: %v", err)
	}
	if m := snap.Meta(); m.LastRefreshDirty != 2 {
		t.Errorf("LastRefreshDirty = %d, want 2", m.LastRefreshDirty)
	}

	// Clean shards: no recompute happened (pinning byte-copy, not a
	// lucky re-encode) and the stored segment bytes equal the previous
	// generation's exactly.
	for i := range diff.Dirty {
		if diff.Dirty[i] {
			continue
		}
		if !run.ShardStats[i].Skipped {
			t.Fatalf("clean shard %d was recomputed", i)
		}
		pe, ne := prev.dir[i], snap.dir[i]
		if pe.qPairs != ne.qPairs || pe.qCRC != ne.qCRC || pe.aCRC != ne.aCRC || pe.fp != ne.fp {
			t.Fatalf("clean shard %d directory entry drifted: %+v vs %+v", i, pe, ne)
		}
		prevSeg := prevBytes[pe.qOff : pe.qOff+pe.qPairs*pairRecordSize]
		newSeg := got[ne.qOff : ne.qOff+ne.qPairs*pairRecordSize]
		if !bytes.Equal(prevSeg, newSeg) {
			t.Fatalf("clean shard %d query segment bytes differ", i)
		}
	}

	// The refreshed snapshot must agree with a cold full rebuild of the
	// churned graph to within the fixpoint tolerance, for every pair.
	fullRes, _, _ := buildGeneration(t, churned, cfg)
	if d := maxRankingDiff(snap, fullRes); d > 1e-6 {
		t.Fatalf("refreshed scores differ from a full rebuild by %g", d)
	}
}

// TestRefreshNewNodesAndChain runs two chained refreshes — new nodes
// attach to an existing cluster, then a wholly-new island appears — so a
// refreshed snapshot proves usable as the next refresh's base.
func TestRefreshNewNodesAndChain(t *testing.T) {
	cfg := refreshCfg()
	seeds := [4]int{5, 6, 7, 8}
	_, _, prev := buildGeneration(t, refreshGraph(t, seeds), cfg)

	// Step 1: a new query hangs off cluster 1.
	b1 := refreshGraph(t, seeds)
	grown := func(extra func(b *clickgraph.Builder)) *clickgraph.Graph {
		b := clickgraph.NewBuilder()
		b1.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
			if err := b.AddEdge(b1.Query(q), b1.Ad(a), w); err != nil {
				t.Fatal(err)
			}
			return true
		})
		extra(b)
		return b.Build()
	}
	g1 := grown(func(b *clickgraph.Builder) {
		if err := b.AddClick("c1-qnew", "c1-a0", 0.5); err != nil {
			t.Fatal(err)
		}
	})
	run1, diff1 := runStep(t, g1, prev, 2)
	if diff1.NewQueries != 1 {
		t.Fatalf("step 1 saw %d new queries, want 1", diff1.NewQueries)
	}
	var buf1 imageBuffer
	if _, err := assembleRefresh(&buf1, prev, run1, nil); err != nil {
		t.Fatalf("step 1 assembleRefresh: %v", err)
	}
	snap1, err := NewSnapshot(bytes.NewReader(buf1.Bytes()), int64(buf1.Len()))
	if err != nil {
		t.Fatal(err)
	}

	// Step 2, based on the refreshed snapshot: an island component.
	g2 := grown(func(b *clickgraph.Builder) {
		if err := b.AddClick("c1-qnew", "c1-a0", 0.5); err != nil {
			t.Fatal(err)
		}
		if err := b.AddClick("island-q", "island-a", 0.9); err != nil {
			t.Fatal(err)
		}
	})
	run2, diff2 := runStep(t, g2, snap1, 2)
	if len(diff2.Plan.Shards) != snap1.NumShards()+1 {
		t.Fatalf("island did not append a shard: %d shards from %d", len(diff2.Plan.Shards), snap1.NumShards())
	}
	var buf2 imageBuffer
	st2, err := assembleRefresh(&buf2, snap1, run2, nil)
	if err != nil {
		t.Fatalf("step 2 assembleRefresh: %v", err)
	}
	if st2.DirtyShards != 1 {
		t.Errorf("step 2 recomputed %d shards, want only the island", st2.DirtyShards)
	}
	snap2, err := NewSnapshot(bytes.NewReader(buf2.Bytes()), int64(buf2.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if err := snap2.PreloadAll(); err != nil {
		t.Fatalf("chained snapshot fails verification: %v", err)
	}
	full, _, _ := buildGeneration(t, g2, cfg)
	qi, _ := snap2.QueryID("island-q")
	ai, _ := snap2.AdID("island-a")
	fqi, _ := full.QueryID("island-q")
	if top := snap2.TopRewrites(qi, -1); len(top) != len(full.TopRewrites(fqi, -1)) {
		t.Errorf("island query rewrites differ from full rebuild")
	}
	_ = ai
}

// TestRefreshFixedIterationsBitIdentical pins two contracts, under a
// fixed-iteration configuration and under one that stops at a loose
// tolerance ("warm", Tolerance > 0). First, a refresh's bytes do not
// depend on the pool width it runs its dirty shards on: at widths 1, 2
// and 4 every refreshed snapshot is the same past the header. Second, a
// refresh re-runs its dirty shards from the identity, so the refreshed
// snapshot is bit-identical to a cold run of the whole projected plan:
// clean shards via byte-copy, dirty shards via deterministic recompute.
// A dirty shard seeded from the previous generation instead would stop
// elsewhere under the tolerance and sit at twice the depth under the
// fixed count. That also pins the assembler's copy path against its
// encode path at the byte level, bid-filtered top-k section included:
// outside the header's generation metadata the refreshed file IS
// WriteSnapshotTopK of that cold run, and so is a refresh in which every
// shard is dirty — a full build.
func TestRefreshFixedIterationsBitIdentical(t *testing.T) {
	fixed := core.DefaultConfig().WithVariant(core.Weighted)
	fixed.Channel = core.ChannelClicks
	fixed.PruneEpsilon = 1e-6 // Iterations 7, Tolerance 0
	base := refreshGraph(t, [4]int{1, 2, 3, 4})
	churned := refreshGraph(t, [4]int{1, 2, 99, 4})
	bids := map[string]bool{}
	for q := 0; q < base.NumQueries(); q += 2 {
		bids[base.Query(q)] = true
	}
	opts := TopKOptions{K: 5, BidTerms: bids}
	// Loose enough that a run seeded from the previous generation would
	// stop short of where a cold run does.
	warm := refreshCfg()
	warm.Tolerance = 1e-4
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"fixed", fixed}, {"warm", warm}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			res0, err := core.RunSharded(base, cfg, partition.ComponentPlan(base), core.ShardOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			var buf0 imageBuffer
			if err := WriteSnapshotTopK(&buf0, res0, opts); err != nil {
				t.Fatal(err)
			}
			prev, err := NewSnapshot(bytes.NewReader(buf0.Bytes()), int64(buf0.Len()))
			if err != nil {
				t.Fatal(err)
			}

			var diff *partition.Diff
			var got []byte
			for _, width := range []int{1, 2, 4} {
				run, d := runStep(t, churned, prev, width)
				var buf imageBuffer
				st, err := assembleRefresh(&buf, prev, run, bids)
				if err != nil {
					t.Fatalf("width %d: assembleRefresh: %v", width, err)
				}
				if d.DirtyShards == 0 || d.CleanShards == 0 {
					t.Fatalf("fixture should mix clean and dirty shards, got %d/%d", d.CleanShards, d.DirtyShards)
				}
				if st.BytesCopied == 0 {
					t.Fatal("no clean segments were byte-copied")
				}
				if got == nil {
					diff, got = d, buf.Bytes()
				} else if !bytes.Equal(buf.Bytes()[headerSize:], got[headerSize:]) {
					t.Fatalf("the refresh at width %d differs past the header from the one at width 1", width)
				}
			}
			snap, err := NewSnapshot(bytes.NewReader(got), int64(len(got)))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Meta().IterationBudget != cfg.Iterations {
				t.Errorf("recorded iteration budget %d, want %d", snap.Meta().IterationBudget, cfg.Iterations)
			}
			full, err := core.RunSharded(churned, cfg, diff.Plan, core.ShardOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var cold imageBuffer
			if err := WriteSnapshotTopK(&cold, full, opts); err != nil {
				t.Fatal(err)
			}
			want := cold.Bytes()
			sameRankings(t, snap, full)
			all := make([]bool, len(diff.Dirty))
			for i := range all {
				all[i] = true
			}
			allRes, err := runDirty(context.Background(), churned, prev, diff.Plan, all, 3)
			if err != nil {
				t.Fatal(err)
			}
			var allDirty imageBuffer
			if _, err := assembleRefresh(&allDirty, prev, allRes, bids); err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]byte{"refreshed": got, "all-dirty": allDirty.Bytes()} {
				if len(got) != len(want) {
					t.Fatalf("%s snapshot is %d bytes, the cold full write %d", name, len(got), len(want))
				}
				// generated-at, last-refresh dirty count, header CRC.
				for _, r := range [][2]int{{128, 136}, {136, 140}, {196, 200}} {
					copy(got[r[0]:r[1]], want[r[0]:r[1]])
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s snapshot differs from the cold full write at byte %d of %d", name, i, len(got))
					}
				}
			}
		})
	}
}

// TestRefreshRestoresDamagedServing: garbage renamed over the serving
// path after its generation was journaled. Refresh re-publishes the last
// good generation, refreshes from it, and publishes the next one.
func TestRefreshRestoresDamagedServing(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, adopted := servingDir(t, fx)
	renameOver(t, path, []byte("not a snapshot"))

	res, err := Refresh(context.Background(), gs, refreshGraph(t, [4]int{9, 2, 3, 4}), 2, nil, nil)
	if err != nil {
		t.Fatalf("refresh over a damaged serving file: %v", err)
	}
	if res.Restored == nil || res.Restored.ID != adopted.ID {
		t.Fatalf("Restored = %+v, want generation %d", res.Restored, adopted.ID)
	}
	if res.Published == nil || res.Published.ID <= adopted.ID || res.Diff.DirtyShards == 0 {
		t.Fatalf("refresh result %+v: want a dirty refresh published past generation %d", res, adopted.ID)
	}
	if err := gs.verify(res.Published); err != nil {
		t.Fatalf("published generation does not verify: %v", err)
	}
	if !bytes.Equal(readFile(t, path), readFile(t, res.Published.SnapPath)) {
		t.Fatal("the serving path does not hold the published generation")
	}
}

// TestRefreshZeroDirtyWritesNothing: a graph whose every shard
// fingerprints as the serving snapshot's runs no shard and leaves the
// serving file and the journal as they were — no generation is added
// that could push a real rollback target out of retention.
func TestRefreshZeroDirtyWritesNothing(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, _ := servingDir(t, fx)
	before := journalNames(t, gs)

	checkpoint := func(stage string) error {
		t.Errorf("a zero-dirty refresh reached %s", stage)
		return nil
	}
	res, err := Refresh(context.Background(), gs, refreshGraph(t, [4]int{1, 2, 3, 4}), 2, nil, checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if res.Published != nil || res.Restored != nil || res.Diff.DirtyShards != 0 || res.Stats != (RefreshStats{}) {
		t.Fatalf("zero-dirty refresh result %+v, want nothing published, restored or written", res)
	}
	if !bytes.Equal(readFile(t, path), fx.gen1) {
		t.Fatal("zero-dirty refresh changed the serving file")
	}
	if after := journalNames(t, gs); !slices.Equal(before, after) {
		t.Fatalf("zero-dirty refresh changed the journal: %v -> %v", before, after)
	}
}
