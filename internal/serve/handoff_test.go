package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
	"simrankpp/internal/workload"
)

// Differential tests for the sorted hand-off: scores travel from the
// engines to the segment bytes as row-sorted frontiers — each shard's
// rows of the run's stitched frontiers, walked in the plan's id order —
// and the two sort-free steps on that path — the segment encoder and the
// scatter index — are held here to the sort-based formulations they
// replaced, and every shard's segments to a standalone run of the shard.

// toPairTable returns the frontier's pairs in the map form the
// reference encoder reads.
func toPairTable(f *sparse.PairFrontier) *sparse.PairTable {
	t := sparse.NewPairTable(f.Len())
	f.Range(func(i, j int, v float64) bool {
		t.Set(i, j, v)
		return true
	})
	return t
}

// referenceEncodeSegment is the encoder as it was while results were hash
// maps: collect the pairs of the shard's rows (ids) in map order,
// comparison-sort them by (i, j).
func referenceEncodeSegment(t *sparse.PairTable, ids []int) []byte {
	type rec struct {
		i, j uint32
		v    float64
	}
	inShard := make(map[int]bool, len(ids))
	for _, i := range ids {
		inShard[i] = true
	}
	recs := make([]rec, 0, t.Len())
	t.Range(func(i, j int, v float64) bool {
		if inShard[i] {
			recs = append(recs, rec{uint32(i), uint32(j), v})
		}
		return true
	})
	slices.SortFunc(recs, func(a, b rec) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		return cmp.Compare(a.j, b.j)
	})
	buf := make([]byte, len(recs)*pairRecordSize)
	for k, r := range recs {
		o := k * pairRecordSize
		binary.LittleEndian.PutUint32(buf[o:], r.i)
		binary.LittleEndian.PutUint32(buf[o+4:], r.j)
		binary.LittleEndian.PutUint64(buf[o+8:], math.Float64bits(r.v))
	}
	return buf
}

// referenceScatterIndex is the by-(j, i) permutation as a comparison sort
// over keys decoded from the segment bytes.
func referenceScatterIndex(b []byte) []uint32 {
	v := segView{b: b}
	n := v.pairs()
	if n == 0 {
		return nil
	}
	idx := make([]uint32, n)
	for k := range idx {
		idx[k] = uint32(k)
	}
	slices.SortFunc(idx, func(a, b uint32) int { return cmp.Compare(v.jkey(int(a)), v.jkey(int(b))) })
	return idx
}

// handoffGraph has three small components and one component of two
// complete bipartite halves joined by two weak bridges, so a component
// plan is exact and a node-capped plan must cut the bridged component.
func handoffGraph(t testing.TB) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	add := func(q, a string, clicks int64, rate float64) {
		w := clickgraph.EdgeWeights{Impressions: 3 * clicks, Clicks: clicks, ExpectedClickRate: rate}
		if err := b.AddEdge(q, a, w); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave the components' nodes so every shard's ids are scattered
	// over the id space and the local→global maps do real work.
	for q := 0; q < 9; q++ {
		for c := 0; c < 3; c++ {
			for a := 0; a < 6; a++ {
				if (q+a+c)%3 != 0 {
					add(fmt.Sprintf("s%d-q%d", c, q), fmt.Sprintf("s%d-a%d", c, a), int64((q*7+a*3+c)%9+1), float64((q*5+a*11+c)%100)/100)
				}
			}
		}
		for h := 0; h < 2; h++ {
			for a := 0; a < 7; a++ {
				add(fmt.Sprintf("b%d-q%d", h, q), fmt.Sprintf("b%d-a%d", h, a), int64((q+a)%5+1), 0.5)
			}
		}
	}
	add("b0-q0", "b1-a0", 1, 0.01)
	add("b0-q1", "b1-a1", 1, 0.01)
	return b.Build()
}

// handoffPlans returns the exact component plan and a plan that carves
// the bridged component with an ACL cut.
func handoffPlans(t testing.TB, g *clickgraph.Graph) map[string]*partition.Plan {
	t.Helper()
	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes, pcfg.MinCutNodes = 24, 8
	cut, err := partition.BuildPlan(g, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Exact || cut.TotalCutEdges == 0 {
		t.Fatalf("fixture should force an ACL cut, got exact=%v cut=%d", cut.Exact, cut.TotalCutEdges)
	}
	return map[string]*partition.Plan{"component-exact": partition.ComponentPlan(g), "acl-cut": cut}
}

// TestEncodeSegmentMatchesReference holds the ordered encoder byte-equal
// to the map-and-sort reference for every shard of every kind of run:
// variants × strict evidence × pruning × {monolithic, component-exact
// plan, ACL-cut plan}, each shard's rows of the stitched frontiers (the
// rows each pool worker deposited concurrently) and all of them at once.
func TestEncodeSegmentMatchesReference(t *testing.T) {
	g := handoffGraph(t)
	plans := handoffPlans(t, g)
	whole := partition.WholePlan(g).Shards[0]
	check := func(label string, f *sparse.PairFrontier, ids []int) {
		t.Helper()
		if got, want := encodeSegment(f, ids), referenceEncodeSegment(toPairTable(f), ids); !bytes.Equal(got, want) {
			t.Errorf("%s: ordered encoder differs from the sort-based reference (%d vs %d bytes)", label, len(got), len(want))
		}
	}
	for _, variant := range []core.Variant{core.Simple, core.Evidence, core.Weighted} {
		for _, strict := range []bool{false, true} {
			for _, prune := range []float64{0, 1e-4} {
				cfg := core.DefaultConfig().WithVariant(variant)
				cfg.Channel = core.ChannelClicks
				cfg.StrictEvidence = strict
				cfg.PruneEpsilon = prune
				label := fmt.Sprintf("%v/strict=%v/prune=%g", variant, strict, prune)

				mono, err := core.Run(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if mono.QueryScores.Len() == 0 || mono.AdScores.Len() == 0 {
					t.Fatalf("%s: a side scored no pairs; the fixture no longer exercises the encoder", label)
				}
				check(label+"/monolithic/query", mono.QueryScores, whole.Queries)
				check(label+"/monolithic/ad", mono.AdScores, whole.Ads)

				for name, plan := range plans {
					res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					for i, sh := range res.Plan.Shards {
						check(fmt.Sprintf("%s/%s/shard %d/query", label, name, i), res.QueryScores, sh.Queries)
						check(fmt.Sprintf("%s/%s/shard %d/ad", label, name, i), res.AdScores, sh.Ads)
					}
					check(label+"/"+name+"/stitched/query", res.QueryScores, whole.Queries)
					check(label+"/"+name+"/stitched/ad", res.AdScores, whole.Ads)
				}
			}
		}
	}
}

// TestEncodeSegmentEdgeShards covers the degenerate shapes: a shard that
// scored nothing, a single pair, and a partial (RunShards) run, whose
// skipped shards leave their stitched rows empty.
func TestEncodeSegmentEdgeShards(t *testing.T) {
	empty := sparse.NewPairFrontier(14)
	if got := encodeSegment(empty, []int{3, 5, 8, 13}); len(got) != 0 {
		t.Errorf("empty shard encoded to %d bytes", len(got))
	}

	one := sparse.NewPairFrontier(70001)
	one.SetSortedRow(7, []int32{70000}, []float64{0.25})
	ids := []int{7, 70, 70000}
	want := referenceEncodeSegment(toPairTable(one), ids)
	if got := encodeSegment(one, ids); len(got) != pairRecordSize || !bytes.Equal(got, want) {
		t.Errorf("single pair encoded to % x, want % x", got, want)
	}

	g := handoffGraph(t)
	plan := handoffPlans(t, g)["component-exact"]
	mask := make([]bool, len(plan.Shards))
	mask[1] = true
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 2, RunShards: mask})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for i, sh := range res.Plan.Shards {
		if !mask[i] {
			if !res.ShardStats[i].Skipped {
				t.Errorf("skipped shard %d not marked Skipped", i)
			}
			for _, q := range sh.Queries {
				if top := res.TopRewrites(q, -1); len(top) != 0 {
					t.Errorf("skipped shard %d left stitched query %d with %d partners", i, q, len(top))
				}
			}
			continue
		}
		seg := encodeSegment(res.QueryScores, sh.Queries)
		if !bytes.Equal(seg, referenceEncodeSegment(toPairTable(res.QueryScores), sh.Queries)) {
			t.Errorf("executed shard %d: ordered encoder differs from the reference", i)
		}
		pairs += len(seg) / pairRecordSize
	}
	if pairs == 0 || pairs != res.QueryScores.Len() {
		t.Errorf("executed shards hold %d query pairs, stitched result %d", pairs, res.QueryScores.Len())
	}
}

// encodeLocalSegment is the segment encoder as it was while shard engines
// kept local frontiers: range a standalone run's local-id frontier and
// remap every pair through the shard's ascending global ids.
func encodeLocalSegment(f *sparse.PairFrontier, ids []int) []byte {
	buf := make([]byte, 0, f.Len()*pairRecordSize)
	f.Range(func(i, j int, v float64) bool {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ids[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ids[j]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		return true
	})
	return buf
}

// TestShardSegmentsMatchStandaloneRuns holds every shard's segment bytes —
// its rows of the run's stitched frontiers, walked through the run's plan
// — to a standalone core.Run over the shard's subview, encoded from that
// run's own local frontiers: for a full build (WriteSnapshotTopK) and for
// a refresh (runDirty's RunShards run, written by assembleRefresh beside
// the clean shards it copies), over an exact plan, an ACL-carved plan and
// WholePlan, for every variant.
func TestShardSegmentsMatchStandaloneRuns(t *testing.T) {
	g := handoffGraph(t)
	plans := handoffPlans(t, g)
	plans["whole"] = partition.WholePlan(g)
	for _, variant := range []core.Variant{core.Simple, core.Evidence, core.Weighted} {
		cfg := core.DefaultConfig().WithVariant(variant)
		for name, plan := range plans {
			label := fmt.Sprintf("%v/%s", variant, name)
			want := make([][2][]byte, len(plan.Shards))
			pairs := 0
			for i := range plan.Shards {
				sh := &plan.Shards[i]
				view, err := clickgraph.NewSubview(g, sh.Queries, sh.Ads, clickgraph.AdTable(g, sh.Ads))
				if err != nil {
					t.Fatal(err)
				}
				local, err := core.Run(view.Graph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = [2][]byte{encodeLocalSegment(local.QueryScores, view.QueryIDs), encodeLocalSegment(local.AdScores, view.AdIDs)}
				pairs += local.QueryScores.Len() + local.AdScores.Len()
			}
			if pairs == 0 {
				t.Fatalf("%s: no shard scored a pair; the fixture no longer exercises the writer", label)
			}
			check := func(stage string, i int, q, a []byte) {
				t.Helper()
				if !bytes.Equal(q, want[i][0]) || !bytes.Equal(a, want[i][1]) {
					t.Errorf("%s/%s: shard %d's segments (%d, %d bytes) differ from its standalone run's (%d, %d bytes)",
						label, stage, i, len(q), len(a), len(want[i][0]), len(want[i][1]))
				}
			}

			res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			var buf imageBuffer
			if err := WriteSnapshotTopK(&buf, res, TopKOptions{}); err != nil {
				t.Fatal(err)
			}
			prev, err := NewSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			for i := range plan.Shards {
				q, err := prev.segmentBytes("query", i)
				if err != nil {
					t.Fatal(err)
				}
				a, err := prev.segmentBytes("ad", i)
				if err != nil {
					t.Fatal(err)
				}
				check("full build", i, q, a)
			}

			dirty := make([]bool, len(plan.Shards))
			for i := range dirty {
				dirty[i] = i%2 == 0
			}
			run, err := runDirty(context.Background(), g, prev, plan, dirty, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range run.ShardStats {
				if st.Skipped == dirty[i] {
					t.Fatalf("%s: shard %d dirty %v but skipped %v", label, i, dirty[i], st.Skipped)
				}
			}
			// The refresh writes the dirty shards' rows of the run and
			// copies the clean ones: every shard still equals its
			// standalone run.
			var rbuf imageBuffer
			if _, _, err := assembleRefresh(&rbuf, prev, run, nil); err != nil {
				t.Fatal(err)
			}
			next, err := NewSnapshot(bytes.NewReader(rbuf.Bytes()), int64(rbuf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			for i := range plan.Shards {
				q, err := next.segmentBytes("query", i)
				if err != nil {
					t.Fatal(err)
				}
				a, err := next.segmentBytes("ad", i)
				if err != nil {
					t.Fatal(err)
				}
				check("refresh", i, q, a)
			}
			next.Close()
			prev.Close()
		}
	}
}

// segmentOf encodes the given (i, j) pairs — already ascending by (i, j)
// — as a segment whose scores are the record indices.
func segmentOf(pairs [][2]uint32) []byte {
	b := make([]byte, 0, len(pairs)*pairRecordSize)
	for k, p := range pairs {
		b = binary.LittleEndian.AppendUint32(b, p[0])
		b = binary.LittleEndian.AppendUint32(b, p[1])
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(k)))
	}
	return b
}

// scatterFixtures are segments that stress the permutation: none and one
// record, one j shared by every record (a single long run, ordered by the
// primary index alone), every pair of a clique (runs of every length),
// and ids spread past 2^16 and 2^24.
func scatterFixtures() map[string][]byte {
	var star, clique, wide [][2]uint32
	for i := uint32(0); i < 3000; i++ {
		star = append(star, [2]uint32{i, 1 << 20})
	}
	for i := uint32(0); i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			clique = append(clique, [2]uint32{i, j})
			wide = append(wide, [2]uint32{i * 300007, j * 300007})
		}
	}
	return map[string][]byte{
		"n=0":         nil,
		"n=1":         segmentOf([][2]uint32{{4, 9}}),
		"one long j":  segmentOf(star),
		"clique":      segmentOf(clique),
		"wide ids":    segmentOf(wide),
		"max id pair": segmentOf([][2]uint32{{0, math.MaxUint32}, {1, 2}, {1, math.MaxUint32}}),
	}
}

// TestScatterIndexMatchesReference holds the counting-sort permutation equal
// to the comparator sort on the fixtures above and on real segments.
func TestScatterIndexMatchesReference(t *testing.T) {
	segs := scatterFixtures()
	g := handoffGraph(t)
	res, err := core.Run(g, core.DefaultConfig().WithVariant(core.Weighted))
	if err != nil {
		t.Fatal(err)
	}
	whole := partition.WholePlan(g).Shards[0]
	segs["engine query side"] = encodeSegment(res.QueryScores, whole.Queries)
	segs["engine ad side"] = encodeSegment(res.AdScores, whole.Ads)
	for name, seg := range segs {
		got, err := buildScatterIndex(seg, math.MaxInt)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		want := referenceScatterIndex(seg)
		if !slices.Equal(got, want) {
			t.Errorf("%s: permutation of %d records differs from the comparator sort", name, len(seg)/pairRecordSize)
		}
		if (got == nil) != (want == nil) {
			t.Errorf("%s: nil-ness differs: got %v want %v", name, got == nil, want == nil)
		}
	}
}

// handoffSnapshotBytes writes a sharded snapshot of the fixture.
func handoffSnapshotBytes(t testing.TB) []byte {
	t.Helper()
	g := handoffGraph(t)
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	res, err := core.RunSharded(g, cfg, partition.ComponentPlan(g), core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf imageBuffer
	if err := WriteSnapshotTopK(&buf, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPreloadAllQuarantinesOnlyTheCorruptSegment pins the parallel
// preload's failure contract over both byte sources: one flipped record
// quarantines exactly its segment, PreloadAll returns that segment's
// error, and every other segment and blob is loaded. Run under -race it
// also exercises the concurrent first touches.
func TestPreloadAllQuarantinesOnlyTheCorruptSegment(t *testing.T) {
	raw := handoffSnapshotBytes(t)
	probe, err := NewSnapshot(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	if len(probe.dir) <= bad || probe.dir[bad].aPairs == 0 {
		t.Fatalf("fixture has %d shards; shard %d needs ad pairs", len(probe.dir), bad)
	}
	raw[probe.dir[bad].aOff+8] ^= 0xff

	for _, mode := range []string{"read", "mapped"} {
		t.Run(mode, func(t *testing.T) {
			var mapped []byte
			if mode == "mapped" {
				mapped = raw
			}
			snap, err := newSnapshot(bytes.NewReader(raw), int64(len(raw)), mapped)
			if err != nil {
				t.Fatal(err)
			}
			err = snap.PreloadAll()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d ad segment", bad)) {
				t.Fatalf("PreloadAll = %v, want shard %d's ad segment checksum failure", err, bad)
			}
			quar := snap.Quarantined()
			if len(quar) != 1 || quar[0].Shard != bad || quar[0].Side != "ad" {
				t.Fatalf("Quarantined() = %+v, want exactly shard %d's ad segment", quar, bad)
			}
			if got, want := snap.LoadedSegments(), 3*snap.NumShards()-1; got != want {
				t.Fatalf("%d segments loaded, want all but one of %d", got, want+1)
			}
		})
	}
}

// The three benchmarks below time the hand-off's serve-side steps on a
// sharded run of a generated multi-cluster click log (reduced under
// -short): encode every shard's segments, build every segment's scatter
// index, and preload a whole mapped snapshot.

func handoffBenchResult(b *testing.B) *core.Result {
	b.Helper()
	lc := workload.ClickLogConfig{Seed: 7, Clusters: 20, QueriesPerCluster: 160, AdsPerCluster: 110, BaseEvents: 20 * 1300}
	if testing.Short() {
		lc.Clusters, lc.BaseEvents = 6, 6*1300
	}
	g, err := lc.BaseGraph(workload.GenerateClickLog(lc))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.PruneEpsilon = 1e-5
	res, err := core.RunSharded(g, cfg, partition.ComponentPlan(g), core.ShardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func reportPerPair(b *testing.B, res *core.Result) {
	pairs := res.QueryScores.Len() + res.AdScores.Len()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
}

func BenchmarkEncodeSegment(b *testing.B) {
	res := handoffBenchResult(b)
	b.ReportAllocs()
	var buf []byte // a writer worker's reused buffer
	for b.Loop() {
		for _, sh := range res.Plan.Shards {
			buf = appendSegment(buf[:0], res.QueryScores, sh.Queries)
			buf = appendSegment(buf, res.AdScores, sh.Ads)
		}
	}
	reportPerPair(b, res)
}

func BenchmarkBuildScatterIndex(b *testing.B) {
	res := handoffBenchResult(b)
	var segs [][]byte
	for _, sh := range res.Plan.Shards {
		segs = append(segs, encodeSegment(res.QueryScores, sh.Queries), encodeSegment(res.AdScores, sh.Ads))
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, seg := range segs {
			if _, err := buildScatterIndex(seg, math.MaxInt); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerPair(b, res)
}

func BenchmarkPreloadAll(b *testing.B) {
	res := handoffBenchResult(b)
	var buf imageBuffer
	if err := WriteSnapshotTopK(&buf, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	for b.Loop() {
		snap, err := newSnapshot(bytes.NewReader(raw), int64(len(raw)), raw)
		if err != nil {
			b.Fatal(err)
		}
		if err := snap.PreloadAll(); err != nil {
			b.Fatal(err)
		}
	}
	reportPerPair(b, res)
}
