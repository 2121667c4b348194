package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"sync"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/frame"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// testGraph builds a deterministic multi-component click graph big enough
// that a component plan yields several shards.
func testGraph(t *testing.T) *clickgraph.Graph {
	return namedTestGraph(t, func(name string, i int) string { return name })
}

// hostileNameGraph is testGraph with every node name carrying bytes a
// text format would have to escape — tab, newline, carriage return,
// backslash (also trailing) — or multi-byte UTF-8. The snapshot's string
// table length-prefixes names, so all of them must come back bit for bit.
func hostileNameGraph(t *testing.T) *clickgraph.Graph {
	decor := []string{"\there", "\nline", "\rreturn", "back\\slash", "trailing\\", "caf\u00e9 \u65e5\u672c\u8a9e \U0001f50d"}
	return namedTestGraph(t, func(name string, i int) string { return name + decor[i%len(decor)] })
}

// namedTestGraph builds testGraph's structure with node names passed
// through rename (given the plain name and the node's index in its
// cluster; rename must keep names distinct).
func namedTestGraph(t *testing.T, rename func(name string, i int) string) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	for c := 0; c < 4; c++ {
		for q := 0; q < 12; q++ {
			for a := 0; a < 8; a++ {
				if (q*7+a*3+c)%4 == 0 {
					err := b.AddEdge(rename(fmt.Sprintf("c%d-q%d", c, q), q), rename(fmt.Sprintf("c%d-a%d", c, a), a),
						clickgraph.EdgeWeights{
							Impressions:       int64(3 * (q + a + 1)),
							Clicks:            int64(q + a + 1),
							ExpectedClickRate: float64((q*5+a*11+c)%100) / 100,
						})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return b.Build()
}

// wholeRun runs g as partition.WholePlan's one shard with its scores
// retained: the monolithic run a snapshot is written from.
func wholeRun(t testing.TB, g *clickgraph.Graph, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.RunSharded(g, cfg, partition.WholePlan(g), core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// snapshotBytes writes res with a top-k section of depth k (0: none).
func snapshotBytes(t *testing.T, res *core.Result, k int) []byte {
	t.Helper()
	var buf imageBuffer
	if err := WriteSnapshotTopK(&buf, res, TopKOptions{K: k}); err != nil {
		t.Fatalf("WriteSnapshotTopK: %v", err)
	}
	return buf.Bytes()
}

// mustSnapshot opens res written with a top-k section of depth k.
func mustSnapshot(t *testing.T, res *core.Result, k int) *Snapshot {
	t.Helper()
	b := snapshotBytes(t, res, k)
	snap, err := NewSnapshot(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

// maxRankingDiff is the largest score difference between a and b over
// every node's full ranked list on both sides, a partner one side lacks
// counting as 0: every stored pair sits in both partners' lists, so this
// covers every pair.
func maxRankingDiff(a, b ScoreIndex) float64 {
	d := 0.0
	side := func(n int, top func(ScoreIndex, int, int) []sparse.Scored) {
		for x := 0; x < n; x++ {
			want := map[int]float64{}
			for _, s := range top(b, x, -1) {
				want[s.Node] = s.Score
			}
			for _, s := range top(a, x, -1) {
				d = max(d, math.Abs(s.Score-want[s.Node]))
				delete(want, s.Node)
			}
			for _, v := range want {
				d = max(d, math.Abs(v))
			}
		}
	}
	side(b.NumQueries(), ScoreIndex.TopRewrites)
	side(b.NumAds(), ScoreIndex.TopSimilarAds)
	return d
}

// sameRankings fails unless every node's full ranked list, on both sides,
// is bit-identical in got and want. Every stored pair sits in both
// partners' lists, so equal lists mean every score is equal.
func sameRankings(t *testing.T, got, want ScoreIndex) {
	t.Helper()
	for q := 0; q < want.NumQueries(); q++ {
		if g, w := got.TopRewrites(q, -1), want.TopRewrites(q, -1); !scoredEqual(g, w) {
			t.Fatalf("TopRewrites(%d, -1) = %v, want %v", q, g, w)
		}
	}
	for a := 0; a < want.NumAds(); a++ {
		if g, w := got.TopSimilarAds(a, -1), want.TopSimilarAds(a, -1); !scoredEqual(g, w) {
			t.Fatalf("TopSimilarAds(%d, -1) = %v, want %v", a, g, w)
		}
	}
}

func scoredEqual(a, b []sparse.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTrip pins the tentpole acceptance: a snapshot answers
// every node's full ranked list bit-identically to the in-memory Result
// it was written from — every stored pair sits in both partners' lists,
// so no score goes unchecked — and returns its node names and run
// configuration unchanged, across variants × strict evidence × monolithic
// and sharded runs, for plain node names and for names full of
// structural bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, names := range []struct {
		label string
		graph *clickgraph.Graph
	}{{"plain", testGraph(t)}, {"hostile", hostileNameGraph(t)}} {
		t.Run(names.label, func(t *testing.T) { testSnapshotRoundTrip(t, names.graph) })
	}
}

func testSnapshotRoundTrip(t *testing.T, g *clickgraph.Graph) {
	plan := partition.ComponentPlan(g)
	if len(plan.Shards) < 2 {
		t.Fatalf("fixture produced %d shards; want >= 2", len(plan.Shards))
	}
	for _, variant := range []core.Variant{core.Simple, core.Evidence, core.Weighted} {
		for _, strict := range []bool{false, true} {
			for _, sharded := range []bool{false, true} {
				name := fmt.Sprintf("%v/strict=%v/sharded=%v", variant, strict, sharded)
				t.Run(name, func(t *testing.T) {
					cfg := core.DefaultConfig().WithVariant(variant)
					cfg.C1, cfg.C2 = 0.7, 0.9
					cfg.StrictEvidence = strict
					cfg.PruneEpsilon = 1e-6
					run := partition.WholePlan(g)
					if sharded {
						run = plan
					}
					res, err := core.RunSharded(g, cfg, run, core.ShardOptions{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					snap := mustSnapshot(t, res, DefaultRewriteTopK)
					meta := snap.Meta()
					if meta.Shards != len(run.Shards) {
						t.Errorf("snapshot has %d shards, want %d", meta.Shards, len(run.Shards))
					}
					if meta.Variant != variant || meta.Iterations != res.Iterations {
						t.Errorf("meta = %+v, want variant %v iterations %d", meta, variant, res.Iterations)
					}
					if got := snap.Config(); got != cfg {
						t.Errorf("Config() = %+v, want %+v", got, cfg)
					}
					if int64(res.QueryScores.Len()) != meta.QueryPairs || int64(res.AdScores.Len()) != meta.AdPairs {
						t.Errorf("meta pairs %d/%d, want %d/%d",
							meta.QueryPairs, meta.AdPairs, res.QueryScores.Len(), res.AdScores.Len())
					}
					for q := 0; q < g.NumQueries(); q++ {
						if got, want := snap.TopRewrites(q, -1), res.TopRewrites(q, -1); !scoredEqual(got, want) {
							t.Fatalf("TopRewrites(%d): snapshot %v, live %v", q, got, want)
						}
						if got, want := snap.TopRewrites(q, 3), res.TopRewrites(q, 3); !scoredEqual(got, want) {
							t.Fatalf("TopRewrites(%d, 3): snapshot %v, live %v", q, got, want)
						}
						if snap.Query(q) != g.Query(q) {
							t.Fatalf("query name %d = %q, want %q", q, snap.Query(q), g.Query(q))
						}
						if id, ok := snap.QueryID(g.Query(q)); !ok || id != q {
							t.Fatalf("QueryID(%q) = %d,%v", g.Query(q), id, ok)
						}
					}
					for a := 0; a < g.NumAds(); a++ {
						if got, want := snap.TopSimilarAds(a, -1), res.TopSimilarAds(a, -1); !scoredEqual(got, want) {
							t.Fatalf("TopSimilarAds(%d): snapshot %v, live %v", a, got, want)
						}
						if snap.Ad(a) != g.Ad(a) {
							t.Fatalf("ad name %d = %q, want %q", a, snap.Ad(a), g.Ad(a))
						}
						if id, ok := snap.AdID(g.Ad(a)); !ok || id != a {
							t.Fatalf("AdID(%q) = %d,%v", g.Ad(a), id, ok)
						}
					}
					if err := snap.Err(); err != nil {
						t.Fatalf("snapshot error after full read: %v", err)
					}
				})
			}
		}
	}
}

// TestSnapshotNameIndexRoundTrip: every name of a written snapshot, plain
// or hostile, resolves through QueryID, AdID, PrevQuery and PrevAd to its
// id (the Prev lookups also to the shard the plan put it in), names that
// are not in it do not resolve, and a string table that names a node of a
// side twice is refused at open.
func TestSnapshotNameIndexRoundTrip(t *testing.T) {
	for _, g := range []*clickgraph.Graph{testGraph(t), hostileNameGraph(t)} {
		plan := partition.ComponentPlan(g)
		res, err := core.RunSharded(g, core.DefaultConfig(), plan, core.ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		snap := mustSnapshot(t, res, DefaultRewriteTopK)
		for si, sh := range plan.Shards {
			for _, q := range sh.Queries {
				name := g.Query(q)
				if id, ok := snap.QueryID(name); !ok || id != q {
					t.Fatalf("QueryID(%q) = %d, %v; want %d", name, id, ok, q)
				}
				if id, shard, ok := snap.PrevQuery(name); !ok || id != q || shard != si {
					t.Fatalf("PrevQuery(%q) = %d, %d, %v; want %d, %d", name, id, shard, ok, q, si)
				}
			}
			for _, a := range sh.Ads {
				name := g.Ad(a)
				if id, ok := snap.AdID(name); !ok || id != a {
					t.Fatalf("AdID(%q) = %d, %v; want %d", name, id, ok, a)
				}
				if id, shard, ok := snap.PrevAd(name); !ok || id != a || shard != si {
					t.Fatalf("PrevAd(%q) = %d, %d, %v; want %d, %d", name, id, shard, ok, a, si)
				}
			}
		}
		for _, absent := range []string{"", "absent", g.Query(0) + "x", g.Ad(0)[1:]} {
			if _, ok := snap.QueryID(absent); ok {
				t.Fatalf("QueryID(%q) resolved", absent)
			}
			if _, ok := snap.AdID(absent); ok {
				t.Fatalf("AdID(%q) resolved", absent)
			}
			if _, _, ok := snap.PrevQuery(absent); ok {
				t.Fatalf("PrevQuery(%q) resolved", absent)
			}
			if _, _, ok := snap.PrevAd(absent); ok {
				t.Fatalf("PrevAd(%q) resolved", absent)
			}
		}
	}

	// c0-q2's entry rewritten to c0-q1's, the table's checksum resealed.
	good := snapshotBytes(t, wholeRun(t, testGraph(t), core.DefaultConfig()), DefaultRewriteTopK)
	stringsOff, stringsLen := binary.LittleEndian.Uint64(good[72:]), binary.LittleEndian.Uint64(good[80:])
	bad := append([]byte(nil), good...)
	table := bad[stringsOff : stringsOff+stringsLen]
	at := bytes.Index(table, []byte("\x05c0-q2"))
	if at < 0 {
		t.Fatal("c0-q2 is not in the string table")
	}
	copy(table[at:], "\x05c0-q1")
	bad = resealHeader(bad, func(h []byte) { binary.LittleEndian.PutUint32(h[52:], crc32.ChecksumIEEE(table)) })
	if _, err := NewSnapshot(bytes.NewReader(bad), int64(len(bad))); err == nil || !strings.Contains(err.Error(), `repeats the name "c0-q1"`) {
		t.Fatalf("a string table naming c0-q1 twice opened, or was refused for another reason: %v", err)
	}
}

// TestSnapshotLazySegmentAccess pins the open-cost acceptance: opening
// materializes no score segment, a query loads only its own shard's
// segment, and a corrupt segment of another shard is never touched.
func TestSnapshotLazySegmentAccess(t *testing.T) {
	g := testGraph(t)
	plan := partition.ComponentPlan(g)
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.PruneEpsilon = 1e-6
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf imageBuffer
	if err := WriteSnapshotTopK(&buf, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		t.Fatal(err)
	}

	// Corrupt the last shard's query segment in place: flip bytes in the
	// middle of its record stream.
	probe, err := NewSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	last := len(probe.dir) - 1
	if probe.dir[last].qPairs == 0 {
		t.Fatalf("last shard has no query pairs; pick a better fixture")
	}
	raw := buf.Bytes()
	off := int(probe.dir[last].qOff)
	for i := 0; i < pairRecordSize; i++ {
		raw[off+i] ^= 0xff
	}

	snap, err := NewSnapshot(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("open after segment corruption failed — open is not lazy: %v", err)
	}
	if n := snap.LoadedSegments(); n != 0 {
		t.Fatalf("%d segments loaded right after open, want 0", n)
	}
	// A query routed to shard 0 must work and load exactly one segment.
	var q0 int = -1
	for q := 0; q < g.NumQueries(); q++ {
		if snap.qRoute[q] == 0 {
			q0 = q
			break
		}
	}
	if q0 < 0 {
		t.Fatal("no query routed to shard 0")
	}
	if got, want := snap.TopRewrites(q0, -1), res.TopRewrites(q0, -1); !scoredEqual(got, want) {
		t.Fatalf("TopRewrites(%d) = %v, want %v", q0, got, want)
	}
	if n := snap.LoadedSegments(); n != 1 {
		t.Fatalf("%d segments loaded after one query, want 1", n)
	}
	if err := snap.Err(); err != nil {
		t.Fatalf("healthy-shard query surfaced an error: %v", err)
	}
	// Touching the corrupt shard must fail its load, yield empty results,
	// and surface through Err and PreloadAll.
	var qBad int = -1
	for q := 0; q < g.NumQueries(); q++ {
		if int(snap.qRoute[q]) == last {
			qBad = q
			break
		}
	}
	if qBad < 0 {
		t.Fatal("no query routed to the corrupted shard")
	}
	if got := snap.TopRewrites(qBad, -1); got != nil {
		t.Fatalf("corrupt shard answered %v, want nil", got)
	}
	if err := snap.Err(); err == nil {
		t.Fatal("corrupt segment load did not surface through Err")
	}
	if err := snap.PreloadAll(); err == nil {
		t.Fatal("PreloadAll accepted a corrupt segment")
	}
}

// TestSnapshotConcurrentReaders exercises the lazy segment loads and
// index builds from many goroutines at once — the shape of concurrent
// HTTP handlers hitting a cold snapshot (meaningful under -race).
func TestSnapshotConcurrentReaders(t *testing.T) {
	g := testGraph(t)
	plan := partition.ComponentPlan(g)
	cfg := core.DefaultConfig()
	cfg.PruneEpsilon = 1e-6
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := mustSnapshot(t, res, DefaultRewriteTopK)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < g.NumQueries(); q++ {
				if got, want := snap.TopRewrites(q, 5), res.TopRewrites(q, 5); !scoredEqual(got, want) {
					t.Errorf("worker %d: TopRewrites(%d) = %v, want %v", w, q, got, want)
					return
				}
			}
			for a := 0; a < g.NumAds(); a++ {
				if got, want := snap.TopSimilarAds(a, 5), res.TopSimilarAds(a, 5); !scoredEqual(got, want) {
					t.Errorf("worker %d: TopSimilarAds(%d) = %v, want %v", w, a, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := snap.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSnapshotRefusesUnshardedResult: a snapshot is written shard by
// shard from the run's plan, so a core.Run result (no plan) is refused
// with an error naming core.RunSharded, and so is a partial (RunShards)
// run, whose skipped shards only a refresh can complete.
func TestWriteSnapshotRefusesUnshardedResult(t *testing.T) {
	g := clickgraph.Fig3()
	res, err := core.Run(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = WriteSnapshotTopK(&imageBuffer{}, res, TopKOptions{K: DefaultRewriteTopK})
	if err == nil || !strings.Contains(err.Error(), "core.RunSharded") {
		t.Fatalf("WriteSnapshotTopK(core.Run result) = %v, want an error naming core.RunSharded", err)
	}
	plan := partition.ComponentPlan(g)
	if len(plan.Shards) < 2 {
		t.Fatalf("fig3 has %d components, want 2", len(plan.Shards))
	}
	mask := make([]bool, len(plan.Shards))
	mask[0] = true
	part, err := core.RunSharded(g, core.DefaultConfig(), plan, core.ShardOptions{RunShards: mask})
	if err != nil {
		t.Fatal(err)
	}
	err = WriteSnapshotTopK(&imageBuffer{}, part, TopKOptions{K: DefaultRewriteTopK})
	if err == nil || !strings.Contains(err.Error(), "shard 1 has no scores") {
		t.Fatalf("WriteSnapshotTopK(partial run) = %v, want shard 1 refused", err)
	}
}

// TestSnapshotRejectsCorruption pins the header/truncation error paths.
func TestSnapshotRejectsCorruption(t *testing.T) {
	g := clickgraph.Fig3()
	res := wholeRun(t, g, core.DefaultConfig())
	var buf imageBuffer
	if err := WriteSnapshotTopK(&buf, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	open := func(b []byte) error {
		_, err := NewSnapshot(bytes.NewReader(b), int64(len(b)))
		return err
	}
	mutate := func(off int, val byte) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= val
		return b
	}

	if err := open(good); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if err := open(mutate(0, 0xff)); err == nil {
		t.Error("bad magic accepted")
	}
	if err := open(mutate(8, 0xff)); err == nil {
		t.Error("bad version accepted")
	}
	if err := open(mutate(45, 0xff)); err == nil {
		t.Error("corrupt header (flipped dimension byte) accepted")
	}
	if err := open(good[:headerSize+4]); err == nil {
		t.Error("string-table truncation accepted")
	}
	if err := open(good[:60]); err == nil {
		t.Error("sub-header truncation accepted")
	}

	// Truncated segment: keep all eager sections, cut the score records.
	probe, err := NewSnapshot(bytes.NewReader(good), int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	cut := int(probe.dir[0].qOff) + pairRecordSize/2
	snap, err := NewSnapshot(bytes.NewReader(good[:cut]), int64(cut))
	if err != nil {
		t.Fatalf("truncated-segment snapshot must still open (lazy): %v", err)
	}
	if err := snap.PreloadAll(); err == nil {
		t.Error("PreloadAll accepted a truncated segment")
	}
}

// resealHeader returns a copy of data with edit applied to the header and
// the header's CRC recomputed: a file only the reader's own checks can
// refuse.
func resealHeader(data []byte, edit func(h []byte)) []byte {
	out := append([]byte(nil), data...)
	edit(out[:headerSize-frame.TrailerSize])
	binary.LittleEndian.PutUint32(out[headerSize-frame.TrailerSize:], crc32.ChecksumIEEE(out[:headerSize-frame.TrailerSize]))
	return out
}

// invalidHeaders are sealed headers a writer never produces: a flag bit
// outside converged and strict evidence (bit 2, the retired spread flag,
// among them), or a recorded config core.Config.Validate refuses. Each
// edits the header at its field's offset, and want is what the refusal
// must name, so a drifted offset cannot pass on some other check.
var invalidHeaders = map[string]struct {
	edit func(h []byte)
	want string
}{
	"retired flag bit 2": {func(h []byte) { h[12] |= 1 << 2 }, "unknown flags 0x4"},
	"flag bit 31":        {func(h []byte) { h[15] |= 1 << 7 }, "unknown flags 0x80000000"},
	"variant 9":          {func(h []byte) { binary.LittleEndian.PutUint32(h[16:], 9) }, "unknown variant 9"},
	"C1 0":               {func(h []byte) { binary.LittleEndian.PutUint64(h[24:], math.Float64bits(0)) }, "C1 must"},
	"C2 1.5":             {func(h []byte) { binary.LittleEndian.PutUint64(h[32:], math.Float64bits(1.5)) }, "C2 must"},
	"channel 7":          {func(h []byte) { binary.LittleEndian.PutUint32(h[140:], 7) }, "unknown weight channel 7"},
	"evidence form 5":    {func(h []byte) { binary.LittleEndian.PutUint32(h[144:], 5) }, "unknown evidence form 5"},
	"NaN prune epsilon": {func(h []byte) { binary.LittleEndian.PutUint64(h[148:], math.Float64bits(math.NaN())) },
		"PruneEpsilon must"},
	"tolerance -1": {func(h []byte) { binary.LittleEndian.PutUint64(h[156:], math.Float64bits(-1)) }, "core: Tolerance must"},
	"infinite delta skip": {func(h []byte) { binary.LittleEndian.PutUint64(h[164:], math.Float64bits(math.Inf(1))) },
		"DeltaSkipTolerance must"},
}

// TestSnapshotRefusesInvalidRecordedConfig: a header whose checksum holds
// but whose flags or recorded config no run could have written is refused
// at open, not served until the first refresh fails on it.
func TestSnapshotRefusesInvalidRecordedConfig(t *testing.T) {
	good := snapshotBytes(t, wholeRun(t, testGraph(t), core.DefaultConfig().WithVariant(core.Weighted)), DefaultRewriteTopK)
	if _, err := NewSnapshot(bytes.NewReader(resealHeader(good, func([]byte) {})), int64(len(good))); err != nil {
		t.Fatalf("resealed pristine header refused: %v", err)
	}
	for name, tc := range invalidHeaders {
		bad := resealHeader(good, tc.edit)
		snap, err := NewSnapshot(bytes.NewReader(bad), int64(len(bad)))
		if err == nil {
			snap.Close()
			t.Errorf("%s: opened", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refused with %q, want it to name %q", name, err, tc.want)
		}
	}
}

// BenchmarkOpenSnapshot times what serve.open_snapshot times in pathbench:
// opening a snapshot file, whose cost is the header, the string table and
// both sides' name indexes, the route map and the directory; no segment
// is read. The graph has pathbench's cluster shape (840 clusters of 65
// queries and 45 ads, each query clicking three of its cluster's ads; 12
// clusters under -short) and its names: pathbenchName's phrases over the
// shared vocabulary with a unique token. Run with
//
//	go test -run='^$' -bench=OpenSnapshot -benchmem ./internal/serve
func BenchmarkOpenSnapshot(b *testing.B) {
	clusters := 840
	if testing.Short() {
		clusters = 12
	}
	bld := clickgraph.NewBuilder()
	for c := range clusters {
		for q := range 65 {
			for k := range 3 {
				w := clickgraph.EdgeWeights{Impressions: 3, Clicks: 1, ExpectedClickRate: float64((q+k)%10) / 10}
				if err := bld.AddEdge(pathbenchName(c, q), pathbenchName(c, (q*7+k)%45)+" ad", w); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	g := bld.Build()
	cfg := core.DefaultConfig()
	cfg.Iterations = 1
	res, err := core.RunSharded(g, cfg, partition.ComponentPlan(g), core.ShardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/open.snap"
	if err := WriteSnapshotFileTopK(path, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		b.Fatal(err)
	}
	names := g.NumQueries() + g.NumAds()
	b.ReportAllocs()
	for b.Loop() {
		snap, err := OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		snap.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(names), "ns/name")
	b.Logf("%d names, %d shards", names, len(res.Plan.Shards))
}
