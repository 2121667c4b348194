package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/sparse"
	"simrankpp/internal/sponsored"
	"simrankpp/internal/workload"
)

// This file pins the zero-copy serving path: the one segment reader
// answers bit-identically to the result the snapshot was written from at
// every layer (raw lookups, segView vs a PairTable scan, HTTP bodies)
// whether the segment bytes are a mapping or were read with ReadAt, the
// precomputed top-k section answers byte-identically to the §9.3 pipeline
// at every depth it accepts (including through a refresh that byte-copies
// clean shards' lists), a corrupt blob fails its own shard's /rewrite and
// nothing else, and a snapshot built under another bid set is refused.

// writeTopKFile runs g sharded and persists it with a top-k section.
func writeTopKFile(t *testing.T, g *clickgraph.Graph, opts TopKOptions) (string, *core.Result) {
	t.Helper()
	plan := partition.ComponentPlan(g)
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.PruneEpsilon = 1e-6
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "zc.snap")
	if err := WriteSnapshotFileTopK(path, res, opts); err != nil {
		t.Fatalf("WriteSnapshotFileTopK: %v", err)
	}
	return path, res
}

// openBoth opens path over both byte sources: mapped (OpenSnapshot; where
// the platform cannot map, a second ReadAt-backed opening) and read into
// memory through NewSnapshot.
func openBoth(t *testing.T, path string) (mapped, read *Snapshot) {
	t.Helper()
	mapped, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	t.Cleanup(func() { mapped.Close() })
	if runtime.GOOS == "linux" && !mapped.Mmapped() {
		t.Fatal("OpenSnapshot did not map the file on linux")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	read, err = NewSnapshot(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	if read.Mmapped() {
		t.Fatal("NewSnapshot returned a mapped snapshot")
	}
	return mapped, read
}

// TestMappedReadDifferential is the reader's core guarantee: every
// lookup the serving surface offers answers, from mapped bytes and from
// ReadAt bytes alike, exactly what the result the snapshot was written
// from answers.
func TestMappedReadDifferential(t *testing.T) {
	g := testGraph(t)
	path, res := writeTopKFile(t, g, TopKOptions{K: DefaultRewriteTopK})
	mm, rd := openBoth(t, path)

	for name, snap := range map[string]*Snapshot{"mapped": mm, "read": rd} {
		for q := 0; q < g.NumQueries(); q++ {
			for _, k := range []int{-1, 0, 1, 3} {
				if got, want := snap.TopRewrites(q, k), res.TopRewrites(q, k); !scoredEqual(got, want) {
					t.Fatalf("%s TopRewrites(%d,%d): %v, result %v", name, q, k, got, want)
				}
			}
		}
		for a := 0; a < g.NumAds(); a++ {
			if got, want := snap.TopSimilarAds(a, -1), res.TopSimilarAds(a, -1); !scoredEqual(got, want) {
				t.Fatalf("%s TopSimilarAds(%d): %v, result %v", name, a, got, want)
			}
		}
	}
	// The result carries no precomputed section to compare with; the two
	// byte sources must at least agree on it (TestPrecomputedMatchesPipeline
	// ties the section to the pipeline).
	for q := 0; q < g.NumQueries(); q++ {
		pm, okm := mm.PrecomputedRewrites(q, 5)
		pr, okr := rd.PrecomputedRewrites(q, 5)
		if okm != okr || !scoredEqual(pm, pr) {
			t.Fatalf("PrecomputedRewrites(%d): mapped %v,%v read %v,%v", q, pm, okm, pr, okr)
		}
	}
}

// serverOver wraps idx in a Server with the default config, changed by
// mutate when it is non-nil.
func serverOver(idx *Snapshot, mutate func(*Config)) *Server {
	cfg := DefaultServerConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return NewServer(idx, cfg)
}

// pipelineBody is the reference a /rewrite answer is held to: the §9.3
// pipeline (a pool of 100, bid set bids, depth top) over idx's ranked
// lists, rendered as the server renders an answer.
func pipelineBody(t *testing.T, idx ScoreIndex, bids map[string]bool, q string, top int) []byte {
	t.Helper()
	id, ok := idx.QueryID(q)
	if !ok {
		t.Fatalf("query %q not in the index", q)
	}
	pipe := rewrite.NewPipeline(idx, bids)
	pipe.MaxRewrites = top
	src := &rewrite.ResultSource{Index: idx}
	cands, err := pipe.Rewrite(src, id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := appendRewriteJSON(nil, q, src.Name(), len(cands), func(i int) (string, float64) {
		return cands[i].Text, cands[i].Score
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// rankedBody is the reference a /similar answer is held to: subject's
// ranked list, rendered as the server renders an answer.
func rankedBody(t *testing.T, idx ScoreIndex, subject string, list []sparse.Scored, name func(int) string) []byte {
	t.Helper()
	body, err := appendRewriteJSON(nil, subject, idx.VariantName(), len(list), func(i int) (string, float64) {
		return name(list[i].Node), list[i].Score
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMappedReadResponsesByteIdentical lifts the differential to the HTTP
// layer: /rewrite and /similar bodies from both byte sources are
// byte-equal to the result's own — the pipeline's rewrites and ranked
// lists — for every query and ad in the fixture, and agree on the 404s.
func TestMappedReadResponsesByteIdentical(t *testing.T) {
	g := testGraph(t)
	path, res := writeTopKFile(t, g, TopKOptions{K: DefaultRewriteTopK})
	mm, rd := openBoth(t, path)
	hm, hr := serverOver(mm, nil).Handler(), serverOver(rd, nil).Handler()

	want := map[string][]byte{}
	for q := 0; q < g.NumQueries(); q++ {
		name := g.Query(q)
		want["/rewrite?q="+name+"&top=3"] = pipelineBody(t, res, nil, name, 3)
		want["/similar?q="+name+"&top=4"] = rankedBody(t, res, name, res.TopRewrites(q, 4), res.Query)
	}
	for a := 0; a < g.NumAds(); a++ {
		want["/similar?ad="+g.Ad(a)+"&top=4"] = rankedBody(t, res, g.Ad(a), res.TopSimilarAds(a, 4), res.Ad)
	}
	for u, wb := range want {
		for name, h := range map[string]http.Handler{"mapped": hm, "read": hr} {
			if c, b := get(t, h, u); c != http.StatusOK || !bytes.Equal(b, wb) {
				t.Fatalf("GET %s: %s %d %q, result %q", u, name, c, b, wb)
			}
		}
	}
	for _, u := range []string{"/rewrite?q=absent-query", "/similar?q=absent-query"} {
		mc, mb := get(t, hm, u)
		if rc, rb := get(t, hr, u); mc != http.StatusNotFound || rc != mc || !bytes.Equal(mb, rb) {
			t.Fatalf("GET %s: mapped %d %q, read %d %q, want the same 404", u, mc, mb, rc, rb)
		}
	}
}

// TestPrecomputedMatchesPipeline pins the section contract at the HTTP
// layer: /rewrite answers are byte-identical to the §9.3 pipeline over the
// same score segments at every depth the section covers — with and
// without a bid-term filter.
func TestPrecomputedMatchesPipeline(t *testing.T) {
	g := testGraph(t)
	bids := map[string]bool{}
	for q := 0; q < g.NumQueries(); q += 3 {
		bids[g.Query(q)] = true
	}
	for _, tc := range []struct {
		name string
		bids map[string]bool
	}{{"unfiltered", nil}, {"bid-filtered", bids}} {
		t.Run(tc.name, func(t *testing.T) {
			path, _ := writeTopKFile(t, g, TopKOptions{K: 4, BidTerms: tc.bids})
			mm, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			if mm.Meta().RewriteTopK != 4 {
				t.Fatalf("RewriteTopK = %d, want 4", mm.Meta().RewriteTopK)
			}
			h := serverOver(mm, func(c *Config) { c.BidTerms = tc.bids }).Handler()
			for q := 0; q < g.NumQueries(); q++ {
				for top := 1; top <= 4; top++ {
					u := fmt.Sprintf("/rewrite?q=%s&top=%d", g.Query(q), top)
					want := pipelineBody(t, mm, tc.bids, g.Query(q), top)
					if code, got := get(t, h, u); code != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("GET %s: section %d %q, pipeline %q", u, code, got, want)
					}
				}
			}
		})
	}
}

// TestPrecomputedEqualsPipelineAtEveryDepth is the section's definition:
// built as simrank -save builds it (K = DefaultRewriteTopK, the pipeline's
// 100-candidate pool), PrecomputedRewrites(q, top) is the §9.3 pipeline's
// answer over the same snapshot for every query at every top from 1 to
// 100, under no bid list, a sparse one and an empty one — on Figure 3 and
// on a clickgen graph whose rows run past the pool (so a section filtered
// from a pool of 99 fails it) and where some list holds more than 16
// rewrites, past the old default depth.
func TestPrecomputedEqualsPipelineAtEveryDepth(t *testing.T) {
	fig3 := fig3Result(t, core.DefaultConfig())
	ucfg := workload.DefaultUniverseConfig()
	ucfg.Categories = 1 // one category, one component: rows past the 100-candidate pool
	u, err := workload.BuildUniverse(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := sponsored.DefaultConfig()
	scfg.Sessions = 20000
	log, err := sponsored.Simulate(u, scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.PruneEpsilon = 1e-6
	gen := wholeRun(t, log.Graph, cfg)
	for _, gc := range []struct {
		name    string
		res     *core.Result
		longest int // the longest list the fixture must reach, unfiltered
	}{{"fig3", fig3, 1}, {"clickgen", gen, 17}} {
		longest := 0
		for _, bc := range bidCases(gc.res.Graph, 0) {
			var buf imageBuffer
			if err := WriteSnapshotTopK(&buf, gc.res, TopKOptions{K: DefaultRewriteTopK, BidTerms: bc.bids}); err != nil {
				t.Fatal(err)
			}
			snap, err := NewSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			pipe := rewrite.NewPipeline(snap, bc.bids)
			src := &rewrite.ResultSource{Index: snap}
			for q := 0; q < snap.NumQueries(); q++ {
				for top := 1; top <= DefaultRewriteTopK; top++ {
					pipe.MaxRewrites = top
					cands, err := pipe.Rewrite(src, q)
					if err != nil {
						t.Fatal(err)
					}
					got, ok := snap.PrecomputedRewrites(q, top)
					if !ok || len(got) != len(cands) {
						t.Fatalf("%s/%s: query %d at top %d: section %v (ok %v), pipeline %v", gc.name, bc.name, q, top, got, ok, cands)
					}
					for i, c := range cands {
						if got[i] != (sparse.Scored{Node: c.Query, Score: c.Score}) {
							t.Fatalf("%s/%s: query %d at top %d: section %v, pipeline %v", gc.name, bc.name, q, top, got, cands)
						}
					}
					if bc.bids == nil {
						longest = max(longest, len(cands))
					}
				}
			}
		}
		if longest < gc.longest {
			t.Fatalf("%s: the longest unfiltered list holds %d rewrites, the fixture needs %d", gc.name, longest, gc.longest)
		}
	}
}

// TestPrecomputedAnswersCompleteListsPastK pins the deep-request contract:
// a top past the stored k is answered from the section, capped at k. A
// list shorter than k is complete — the pipeline ran out of candidates —
// so it is the pipeline's answer at that depth too; a full list is the
// pipeline's at depth k. At K = 2 and K = 4, over testGraph and stemGraph,
// under each bid case, every /rewrite at top 1…K+3 and 100 is the
// pipeline's answer at depth min(top, K), and the fixtures hold lists of
// both kinds. With one byte flipped in every shard's query-score segment,
// a fresh opening answers all of them the same without loading one.
func TestPrecomputedAnswersCompleteListsPastK(t *testing.T) {
	short, full := 0, 0 // lists shorter than k, and lists of k
	for _, gc := range []struct {
		name string
		g    *clickgraph.Graph
	}{{"testGraph", testGraph(t)}, {"stemGraph", stemGraph(t, [4]int{1, 2, 3, 4})}} {
		g := gc.g
		for _, k := range []int{2, 4} {
			for _, bc := range bidCases(g, 0) {
				t.Run(fmt.Sprintf("%s/K=%d/%s", gc.name, k, bc.name), func(t *testing.T) {
					path, _ := writeTopKFile(t, g, TopKOptions{K: k, BidTerms: bc.bids})
					mm, err := OpenSnapshot(path)
					if err != nil {
						t.Fatal(err)
					}
					defer mm.Close()
					tops := []int{100}
					for top := 1; top <= k+3; top++ {
						tops = append(tops, top)
					}
					want := map[string][]byte{}
					for q := 0; q < g.NumQueries(); q++ {
						list, _ := mm.PrecomputedRewrites(q, -1)
						if len(list) < k {
							short++
						} else {
							full++
						}
						for _, top := range tops {
							u := fmt.Sprintf("/rewrite?q=%s&top=%d", url.QueryEscape(g.Query(q)), top)
							want[u] = pipelineBody(t, mm, bc.bids, g.Query(q), min(top, k))
						}
					}
					bad := corruptQuerySegments(t, path)
					defer bad.Close()
					for name, snap := range map[string]*Snapshot{"intact": mm, "corrupt scores": bad} {
						h := serverOver(snap, func(c *Config) { c.BidTerms = bc.bids }).Handler()
						for u, wb := range want {
							if code, got := get(t, h, u); code != http.StatusOK || !bytes.Equal(got, wb) {
								t.Fatalf("%s: GET %s = %d %q, pipeline %q", name, u, code, got, wb)
							}
						}
					}
					if quar := bad.Quarantined(); len(quar) != 0 || bad.LoadedSegments() != bad.NumShards() {
						t.Fatalf("the section answers loaded %d segments and quarantined %+v, want only the %d blobs", bad.LoadedSegments(), quar, bad.NumShards())
					}
				})
			}
		}
	}
	if short == 0 || full == 0 {
		t.Fatalf("%d lists shorter than k and %d of k; the fixtures need both", short, full)
	}
}

// corruptQuerySegments opens a copy of the snapshot at path with one byte
// flipped in every non-empty query-score segment.
func corruptQuerySegments(t *testing.T, path string) *Snapshot {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewSnapshot(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range probe.dir {
		if e.qPairs > 0 {
			raw[e.qOff+e.qPairs*pairRecordSize/2] ^= 0x40
		}
	}
	bad := filepath.Join(t.TempDir(), "bad-scores.snap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(bad)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestPrecomputedBidHashMismatch: a snapshot whose lists were filtered
// under one bid set does not open for a daemon running another — nor for
// one running none, nor does a bare snapshot open for a daemon with a bid
// list — and the error names -bids; under its own bid set it opens.
func TestPrecomputedBidHashMismatch(t *testing.T) {
	g := testGraph(t)
	builtBids := map[string]bool{g.Query(0): true, g.Query(1): true}
	path, _ := writeTopKFile(t, g, TopKOptions{K: 4, BidTerms: builtBids})
	barePath, _ := writeTopKFile(t, g, TopKOptions{K: 4})
	for _, c := range []struct {
		path string
		bids map[string]bool
	}{{path, map[string]bool{g.Query(2): true}}, {path, map[string]bool{}}, {path, nil}, {barePath, builtBids}} {
		if snap, _, err := OpenServing(c.path, false, c.bids, nil); err == nil || !strings.Contains(err.Error(), "-bids") {
			if snap != nil {
				snap.Close()
			}
			t.Errorf("OpenServing under bids %v = %v, want an error naming -bids", c.bids, err)
		}
	}
	snap, _, err := OpenServing(path, false, builtBids, nil)
	if err != nil {
		t.Fatalf("OpenServing under the section's own bid set: %v", err)
	}
	snap.Close()
}

// TestRefreshPreservesPrecomputedIdentity runs a real churn step over a
// snapshot carrying a section — clean shards' lists are byte-copied,
// dirty shards' rebuilt — and pins that the refreshed snapshot still
// answers /rewrite byte-identically to the pipeline over its score
// segments for every query, clean and dirty alike.
func TestRefreshPreservesPrecomputedIdentity(t *testing.T) {
	bids := map[string]bool{}
	g0 := refreshGraph(t, [4]int{1, 2, 3, 4})
	for q := 0; q < g0.NumQueries(); q += 2 {
		bids[g0.Query(q)] = true
	}
	plan := partition.ComponentPlan(g0)
	cfg := refreshCfg()
	res0, err := core.RunSharded(g0, cfg, plan, core.ShardOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf0 imageBuffer
	if err := WriteSnapshotTopK(&buf0, res0, TopKOptions{K: 5, BidTerms: bids}); err != nil {
		t.Fatal(err)
	}
	prev, err := NewSnapshot(bytes.NewReader(buf0.Bytes()), int64(buf0.Len()))
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()

	// Churn cluster 2 and refresh.
	g1 := refreshGraph(t, [4]int{1, 2, 9, 4})
	run1, diff := runStep(t, g1, prev, 3)
	dirtyCount := 0
	for _, d := range diff.Dirty {
		if d {
			dirtyCount++
		}
	}
	if dirtyCount == 0 || dirtyCount == len(diff.Dirty) {
		t.Fatalf("fixture produced %d/%d dirty shards; want a mix", dirtyCount, len(diff.Dirty))
	}
	var buf1 imageBuffer
	if _, _, err := assembleRefresh(&buf1, prev, run1, bids); err != nil {
		t.Fatalf("assembleRefresh: %v", err)
	}
	// Write to disk so the refreshed generation serves from the mmap path.
	path := filepath.Join(t.TempDir(), "refreshed.snap")
	if err := os.WriteFile(path, buf1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	next, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if next.Meta().RewriteTopK != 5 || next.Meta().RewriteBidHash != BidTermsHash(bids) {
		t.Fatalf("refreshed section meta = k%d hash %x, want k5 hash %x",
			next.Meta().RewriteTopK, next.Meta().RewriteBidHash, BidTermsHash(bids))
	}
	// The reference is the pipeline over the refreshed score segments; top
	// 8 is past k, so capped at it.
	h := serverOver(next, func(c *Config) { c.BidTerms = bids }).Handler()
	for q := 0; q < g1.NumQueries(); q++ {
		for _, top := range []int{3, 5, 8} {
			u := fmt.Sprintf("/rewrite?q=%s&top=%d", g1.Query(q), top)
			want := pipelineBody(t, next, bids, g1.Query(q), min(top, 5))
			if code, got := get(t, h, u); code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("after refresh, GET %s: section %d %q, pipeline %q", u, code, got, want)
			}
		}
	}

	// A refresh under a different bid set than the section was built
	// with must refuse — silently rebuilding only dirty lists would mix
	// filter regimes across shards.
	other := map[string]bool{g1.Query(1): true}
	if _, _, err := assembleRefresh(&imageBuffer{}, prev, run1, other); err == nil {
		t.Fatal("assembleRefresh accepted a bid set differing from the section's")
	}
}

// makeSegBytes packs (i, j, score) records in the snapshot's segment
// layout. Records must already be sorted ascending by (i, j) with i < j.
func makeSegBytes(t *testing.T, recs [][3]float64) []byte {
	t.Helper()
	b := make([]byte, 0, len(recs)*pairRecordSize)
	for _, r := range recs {
		var rec [pairRecordSize]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(r[0]))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r[1]))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r[2]))
		b = append(b, rec[:]...)
	}
	return b
}

// TestSegViewBoundaries pins the in-place search on the awkward shapes:
// empty segment, single pair, first and last record of a segment, a
// node with partners in both the scattered and contiguous regions, and
// absent nodes — each cross-checked against a scan of a PairTable
// holding the same pairs.
func TestSegViewBoundaries(t *testing.T) {
	cases := []struct {
		name string
		recs [][3]float64 // sorted (i, j, score), i < j
	}{
		{"empty", nil},
		{"single-pair", [][3]float64{{2, 7, 0.5}}},
		{"two-pairs-shared-node", [][3]float64{{1, 3, 0.4}, {3, 9, 0.7}}},
		{"ties-and-regions", [][3]float64{
			{0, 1, 0.9}, {0, 5, 0.3}, {1, 5, 0.3}, {2, 5, 0.8}, {2, 6, 0.1}, {5, 9, 0.3},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := makeSegBytes(t, tc.recs)
			byJ, err := buildScatterIndex(raw, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			v := segView{b: raw, byJ: byJ}
			tab := sparse.NewPairTable(16)
			maxNode := 0
			for _, r := range tc.recs {
				tab.Set(int(r[0]), int(r[1]), r[2])
				if int(r[1]) > maxNode {
					maxNode = int(r[1])
				}
			}
			if v.pairs() != len(tc.recs) {
				t.Fatalf("pairs() = %d, want %d", v.pairs(), len(tc.recs))
			}
			for node := 0; node <= maxNode+1; node++ {
				for _, k := range []int{-1, 0, 1, 2, len(tc.recs) + 1} {
					got, want := v.topKFor(node, k), tab.TopKFor(node, k)
					if len(want) == 0 {
						want = nil
					}
					if !scoredEqual(got, want) {
						t.Errorf("topKFor(%d,%d) = %v, PairTable %v", node, k, got, want)
					}
				}
			}
		})
	}
}

// TestQueryIDZeroAlloc pins the string-interning satellite: resolving a
// query or ad name on a warm snapshot — hit or miss — allocates nothing
// over either byte source.
func TestQueryIDZeroAlloc(t *testing.T) {
	g := testGraph(t)
	path, _ := writeTopKFile(t, g, TopKOptions{K: 2})
	mm, rd := openBoth(t, path)
	hit, miss := g.Query(0), "no such query"
	for name, snap := range map[string]*Snapshot{"mapped": mm, "read": rd} {
		if n := testing.AllocsPerRun(200, func() {
			if _, ok := snap.QueryID(hit); !ok {
				t.Fatal("hit lookup failed")
			}
			if _, ok := snap.QueryID(miss); ok {
				t.Fatal("miss lookup hit")
			}
			snap.AdID(hit)
		}); n != 0 {
			t.Errorf("%s: QueryID/AdID allocated %.1f per run, want 0", name, n)
		}
	}
}

// TestTopKBlobCorruptionFailsItsShard pins the quarantine semantics of
// the section: a corrupt top-k blob quarantines only that shard's "topk"
// side. Its queries' /rewrite answers 500 — a gateway fails them over —
// while their /similar still reads the intact score segments, every
// other shard's /rewrite is the pipeline's answer, and /readyz reports
// degraded, never unready.
func TestTopKBlobCorruptionFailsItsShard(t *testing.T) {
	g := testGraph(t)
	path, _ := writeTopKFile(t, g, TopKOptions{K: 4})
	probe, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the blob of the shard serving query 0 and flip one byte.
	si := int(probe.qRoute[0])
	off, ln := probe.dir[si].tkOff, probe.dir[si].tkLen
	want := map[int][]byte{}
	for q := 0; q < g.NumQueries(); q++ {
		want[q] = pipelineBody(t, probe, nil, g.Query(q), 3)
	}
	probe.Close()
	if ln == 0 {
		t.Fatal("fixture shard has no top-k blob")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off+ln/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("open with corrupt blob should succeed (lazy load): %v", err)
	}
	defer snap.Close()
	h := serverOver(snap, nil).Handler()
	for q := 0; q < g.NumQueries(); q++ {
		code, body := get(t, h, "/rewrite?q="+g.Query(q)+"&top=3")
		if int(snap.qRoute[q]) == si {
			if code != http.StatusInternalServerError {
				t.Fatalf("query %d of the corrupt blob's shard: /rewrite = %d %q, want 500", q, code, body)
			}
			if code, body := get(t, h, "/similar?q="+g.Query(q)+"&top=3"); code != http.StatusOK {
				t.Fatalf("query %d of the corrupt blob's shard: /similar = %d %q, want 200", q, code, body)
			}
			continue
		}
		if code != http.StatusOK || !bytes.Equal(body, want[q]) {
			t.Fatalf("query %d of a healthy shard: /rewrite = %d %q, pipeline %q", q, code, body, want[q])
		}
	}
	qs := snap.Quarantined()
	if len(qs) != 1 || qs[0].Shard != si || qs[0].Side != "topk" {
		t.Fatalf("Quarantined() = %+v, want only shard %d's topk side", qs, si)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (degraded): %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("/readyz body %q, want degraded", rec.Body.String())
	}
	// /stats still reports the section, and the blob under quarantined.
	var stats StatsResponse
	if _, raw := get(t, h, "/stats"); json.Unmarshal(raw, &stats) != nil {
		t.Fatalf("bad /stats body %q", raw)
	}
	if ts := stats.TopKSection; ts == nil || !ts.Present || ts.K != 4 {
		t.Errorf("topk_section = %+v with the blob quarantined, want present at k 4", ts)
	}
	if len(stats.Quarantined) != 1 || stats.Quarantined[0].Side != "topk" {
		t.Errorf("/stats quarantined = %+v, want the topk side", stats.Quarantined)
	}
}
