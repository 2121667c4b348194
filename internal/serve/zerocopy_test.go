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
	"simrankpp/internal/sparse"
)

// This file pins the zero-copy serving path: the one segment reader
// answers bit-identically to the result the snapshot was written from at
// every layer (raw lookups, segView vs a PairTable scan, HTTP bodies)
// whether the segment bytes are a mapping or were read with ReadAt, the
// precomputed top-k section answers byte-identically to the live
// pipeline (including through a refresh that byte-copies clean shards'
// lists), and the section degrades to the pipeline — never to an error —
// when its blob is corrupt or its parameters don't match.

// writeTopKFile runs g sharded and persists it with a top-k section.
func writeTopKFile(t *testing.T, g *clickgraph.Graph, opts TopKOptions) (string, *core.Result) {
	t.Helper()
	plan := partition.ComponentPlan(g)
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.PruneEpsilon = 1e-6
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: 3, RetainShardScores: true})
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
func serverOver(idx ScoreIndex, mutate func(*Config)) *Server {
	cfg := DefaultServerConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return NewServer(idx, cfg)
}

// pipelineServer is the reference the precomputed section is held to: a
// server with bid set bids over res written without a section (K 0), so
// every /rewrite runs the live pipeline over the same score segments.
func pipelineServer(t *testing.T, res *core.Result, bids map[string]bool) http.Handler {
	t.Helper()
	return serverOver(mustSnapshot(t, res, 0), func(c *Config) { c.BidTerms = bids }).Handler()
}

// TestMappedReadResponsesByteIdentical lifts the differential to the HTTP
// layer: /rewrite and /similar bodies from both byte sources are
// byte-equal to a server over the live result, for every query and ad in
// the fixture.
func TestMappedReadResponsesByteIdentical(t *testing.T) {
	g := testGraph(t)
	path, res := writeTopKFile(t, g, TopKOptions{K: DefaultRewriteTopK})
	mm, rd := openBoth(t, path)
	hm, hr, live := serverOver(mm, nil).Handler(), serverOver(rd, nil).Handler(), serverOver(res, nil).Handler()

	urls := make([]string, 0, 2*g.NumQueries()+g.NumAds())
	for q := 0; q < g.NumQueries(); q++ {
		urls = append(urls,
			"/rewrite?q="+g.Query(q)+"&top=3",
			"/similar?q="+g.Query(q)+"&top=4")
	}
	for a := 0; a < g.NumAds(); a++ {
		urls = append(urls, "/similar?ad="+g.Ad(a)+"&top=4")
	}
	urls = append(urls, "/rewrite?q=absent-query", "/similar?q=absent-query")
	for _, u := range urls {
		wc, wb := get(t, live, u)
		for name, h := range map[string]http.Handler{"mapped": hm, "read": hr} {
			if c, b := get(t, h, u); c != wc || !bytes.Equal(b, wb) {
				t.Fatalf("GET %s: %s %d %q, live result %d %q", u, name, c, b, wc, wb)
			}
		}
	}
}

// TestPrecomputedMatchesPipeline pins the fast-path contract: with a
// usable section, /rewrite answers are byte-identical whether they come
// from the precomputed lists or the live pipeline, at every depth the
// section covers — with and without a bid-term filter.
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
			path, res := writeTopKFile(t, g, TopKOptions{K: 4, BidTerms: tc.bids})
			mm, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			if mm.Meta().RewriteTopK != 4 {
				t.Fatalf("RewriteTopK = %d, want 4", mm.Meta().RewriteTopK)
			}
			fast := serverOver(mm, func(c *Config) { c.BidTerms = tc.bids }).Handler()
			slow := pipelineServer(t, res, tc.bids)
			for q := 0; q < g.NumQueries(); q++ {
				for top := 1; top <= 4; top++ {
					u := fmt.Sprintf("/rewrite?q=%s&top=%d", g.Query(q), top)
					fc, fb := get(t, fast, u)
					sc, sb := get(t, slow, u)
					if fc != sc || !bytes.Equal(fb, sb) {
						t.Fatalf("GET %s: precomputed %d %q, pipeline %d %q", u, fc, fb, sc, sb)
					}
				}
			}
		})
	}
}

// TestPrecomputedAnswersCompleteListsPastK pins the deep-request contract:
// a top past the stored k is a section lookup when the query's list is
// shorter than k — the pipeline ran out of candidates, so the list is the
// whole answer — and a pipeline run when the list is full. At K = 2 and
// K = 4, over testGraph and stemGraph, under each bid case, every /rewrite
// at top 1…K+3 and 100 is byte-equal to a server over the same scores
// without a section, and the section answers exactly the requests the
// contract gives it. Then the path is shown on the served bytes: with one
// byte flipped in a shard's query-score segment, a fresh opening answers
// that shard's short lists past k without loading the segment (nothing is
// quarantined), while a full list past k, and top 120 under MaxTop 150 (a
// pool the section was not built from), load it and quarantine it.
func TestPrecomputedAnswersCompleteListsPastK(t *testing.T) {
	deepFromSection, deepFromPipeline, untouchedChecks, touchedChecks := 0, 0, 0, 0
	for _, gc := range []struct {
		name string
		g    *clickgraph.Graph
	}{{"testGraph", testGraph(t)}, {"stemGraph", stemGraph(t, [4]int{1, 2, 3, 4})}} {
		g := gc.g
		for _, k := range []int{2, 4} {
			for _, bc := range bidCases(g, 0) {
				t.Run(fmt.Sprintf("%s/K=%d/%s", gc.name, k, bc.name), func(t *testing.T) {
					path, res := writeTopKFile(t, g, TopKOptions{K: k, BidTerms: bc.bids})
					mm, err := OpenSnapshot(path)
					if err != nil {
						t.Fatal(err)
					}
					defer mm.Close()
					bidHash := BidTermsHash(bc.bids)
					fast := serverOver(mm, func(c *Config) { c.BidTerms = bc.bids }).Handler()
					slow := pipelineServer(t, res, bc.bids)
					tops := []int{100}
					for top := 1; top <= k+3; top++ {
						tops = append(tops, top)
					}
					for _, top := range tops {
						if !mm.RewriteSectionUsable(top, bidHash) {
							t.Fatalf("section refused top %d under its own bid set", top)
						}
					}
					stored := make([]int, g.NumQueries()) // each query's list length
					for q := range stored {
						list, ok := mm.PrecomputedRewrites(q, k)
						if !ok {
							t.Fatalf("query %d has no list at depth k", q)
						}
						stored[q] = len(list)
						for _, top := range tops {
							_, hit := mm.PrecomputedRewrites(q, top)
							if want := top <= k || stored[q] < k; hit != want {
								t.Fatalf("PrecomputedRewrites(%d, %d) hit = %v with %d of k = %d stored, want %v", q, top, hit, stored[q], k, want)
							}
							switch {
							case top > k && hit:
								deepFromSection++
							case top > k:
								deepFromPipeline++
							}
							u := fmt.Sprintf("/rewrite?q=%s&top=%d", url.QueryEscape(g.Query(q)), top)
							fc, fb := get(t, fast, u)
							sc, sb := get(t, slow, u)
							if fc != http.StatusOK || fc != sc || !bytes.Equal(fb, sb) {
								t.Fatalf("GET %s: section server %d %q, pipeline server %d %q", u, fc, fb, sc, sb)
							}
						}
					}
					untouched, touched := checkDeepPathsOnCorruptScores(t, path, mm, stored, k, bc.bids)
					if untouched {
						untouchedChecks++
					}
					if touched {
						touchedChecks++
					}
				})
			}
		}
	}
	if deepFromSection == 0 || deepFromPipeline == 0 {
		t.Fatalf("past k, the section answered %d requests and the pipeline %d; the fixtures need both", deepFromSection, deepFromPipeline)
	}
	if untouchedChecks == 0 || touchedChecks == 0 {
		t.Fatalf("%d cases had a short list beside a scored pair, %d also a full one in its shard; the fixtures need both", untouchedChecks, touchedChecks)
	}
}

// checkDeepPathsOnCorruptScores flips one byte of the query-score segment
// of a shard holding a query whose stored list is shorter than k (stored
// holds each query's list length in probe, the snapshot at path) and
// checks, on fresh openings of the copy, that the shard's short lists at
// top k+3 never load the segment, and — when the shard also holds a full
// list — that the full list at k+3, and a short one at top 120 under
// MaxTop 150, do. It reports which halves the lists let it check.
func checkDeepPathsOnCorruptScores(t *testing.T, path string, probe *Snapshot, stored []int, k int, bids map[string]bool) (untouched, touched bool) {
	t.Helper()
	var short, full []int // by shard: a query of each kind, -1 for none
	for range probe.dir {
		short, full = append(short, -1), append(full, -1)
	}
	for q, n := range stored {
		si := probe.qRoute[q]
		if n < k && short[si] < 0 {
			short[si] = q
		}
		if n == k && full[si] < 0 {
			full[si] = q
		}
	}
	si := -1
	for i := range probe.dir {
		if short[i] < 0 || probe.dir[i].qPairs == 0 {
			continue
		}
		if si < 0 || full[si] < 0 && full[i] >= 0 {
			si = i
		}
	}
	if si < 0 {
		return false, false // every list beside a scored pair is full
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e := probe.dir[si]
	raw[e.qOff+e.qPairs*pairRecordSize/2] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad-scores.snap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// serve opens bad afresh, GETs u from a server over it (maxTop 0 keeps
	// the default) and returns the quarantined sides.
	serve := func(u string, maxTop int) []ShardHealth {
		snap, err := OpenSnapshot(bad)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		h := serverOver(snap, func(c *Config) {
			c.BidTerms = bids
			if maxTop > 0 {
				c.MaxTop = maxTop
			}
		}).Handler()
		get(t, h, u)
		return snap.Quarantined()
	}
	rw := func(q, top int) string {
		return fmt.Sprintf("/rewrite?q=%s&top=%d", url.QueryEscape(probe.Query(q)), top)
	}
	for q, n := range stored {
		if int(probe.qRoute[q]) != si || n == k {
			continue
		}
		if quar := serve(rw(q, k+3), 0); len(quar) != 0 {
			t.Fatalf("short list of %q at top %d loaded the corrupt segment: %+v", probe.Query(q), k+3, quar)
		}
	}
	if full[si] < 0 {
		return true, false
	}
	for _, c := range []struct {
		u      string
		maxTop int
	}{{rw(full[si], k+3), 0}, {rw(short[si], 120), 150}} {
		quar := serve(c.u, c.maxTop)
		if len(quar) != 1 || quar[0].Shard != si || quar[0].Side != "query" {
			t.Fatalf("GET %s (MaxTop %d) quarantined %+v, want shard %d's query side", c.u, c.maxTop, quar, si)
		}
	}
	return true, true
}

// TestPrecomputedBidHashMismatch: a server running a different bid set
// than the section was built under must not serve the section.
func TestPrecomputedBidHashMismatch(t *testing.T) {
	g := testGraph(t)
	builtBids := map[string]bool{g.Query(0): true, g.Query(1): true}
	servedBids := map[string]bool{g.Query(2): true}
	path, res := writeTopKFile(t, g, TopKOptions{K: 4, BidTerms: builtBids})
	mm, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if mm.RewriteSectionUsable(3, BidTermsHash(servedBids)) {
		t.Fatal("section built under one bid set usable under another")
	}
	// The mismatched server still answers correctly — via the pipeline.
	mis := serverOver(mm, func(c *Config) { c.BidTerms = servedBids }).Handler()
	pipe := pipelineServer(t, res, servedBids)
	for q := 0; q < g.NumQueries(); q++ {
		u := "/rewrite?q=" + g.Query(q) + "&top=3"
		mc, mb := get(t, mis, u)
		pc, pb := get(t, pipe, u)
		if mc != pc || !bytes.Equal(mb, pb) {
			t.Fatalf("GET %s: mismatched-bids server %d %q, pipeline %d %q", u, mc, mb, pc, pb)
		}
	}
}

// TestRefreshPreservesPrecomputedIdentity runs a real churn step over a
// snapshot carrying a section — clean shards' lists are byte-copied,
// dirty shards' rebuilt — and pins that the refreshed snapshot still
// answers /rewrite byte-identically to the live pipeline for every
// query, clean and dirty alike.
func TestRefreshPreservesPrecomputedIdentity(t *testing.T) {
	bids := map[string]bool{}
	g0 := refreshGraph(t, [4]int{1, 2, 3, 4})
	for q := 0; q < g0.NumQueries(); q += 2 {
		bids[g0.Query(q)] = true
	}
	plan := partition.ComponentPlan(g0)
	cfg := refreshCfg()
	res0, err := core.RunSharded(g0, cfg, plan, core.ShardOptions{Workers: 3, RetainShardScores: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf0 bytes.Buffer
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
	run1, diff := runDirty(t, g1, prev, 3)
	dirtyCount := 0
	for _, d := range diff.Dirty {
		if d {
			dirtyCount++
		}
	}
	if dirtyCount == 0 || dirtyCount == len(diff.Dirty) {
		t.Fatalf("fixture produced %d/%d dirty shards; want a mix", dirtyCount, len(diff.Dirty))
	}
	var buf1 bytes.Buffer
	if _, err := assemble(&buf1, g1, prev, diff, run1, bids); err != nil {
		t.Fatalf("AssembleRefresh: %v", err)
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
	// The pipeline reference: the same refresh over prev written without a
	// section, so the same score segments and no lists.
	bare := mustSnapshot(t, res0, 0)
	var bufBare bytes.Buffer
	if _, err := assemble(&bufBare, g1, bare, diff, run1, nil); err != nil {
		t.Fatalf("AssembleRefresh without a section: %v", err)
	}
	nextBare, err := NewSnapshot(bytes.NewReader(bufBare.Bytes()), int64(bufBare.Len()))
	if err != nil {
		t.Fatal(err)
	}
	fast := serverOver(next, func(c *Config) { c.BidTerms = bids }).Handler()
	slow := serverOver(nextBare, func(c *Config) { c.BidTerms = bids }).Handler()
	deep := 0 // queries the section answers past k
	for q := 0; q < g1.NumQueries(); q++ {
		// top 8 is past k: a list shorter than 5 answers it from the
		// section, a full one through the pipeline.
		for _, top := range []int{5, 8} {
			u := fmt.Sprintf("/rewrite?q=%s&top=%d", g1.Query(q), top)
			fc, fb := get(t, fast, u)
			sc, sb := get(t, slow, u)
			if fc != sc || !bytes.Equal(fb, sb) {
				t.Fatalf("after refresh, GET %s: precomputed %d %q, pipeline %d %q", u, fc, fb, sc, sb)
			}
		}
		if _, hit := next.PrecomputedRewrites(q, 8); hit {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("the refreshed section answered no query past k; the fixture needs short lists")
	}

	// A refresh under a different bid set than the section was built
	// with must refuse — silently rebuilding only dirty lists would mix
	// filter regimes across shards.
	other := map[string]bool{g1.Query(1): true}
	if _, err := assemble(&bytes.Buffer{}, g1, prev, diff, run1, other); err == nil {
		t.Fatal("AssembleRefresh accepted a bid set differing from the section's")
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

// TestTopKBlobCorruptionFallsBack pins the quarantine semantics of the
// new section: a corrupt top-k blob quarantines only the "topk" side —
// /rewrite transparently falls back to the pipeline with correct
// answers, and /readyz reports degraded, never unready, because scoring
// segments are intact.
func TestTopKBlobCorruptionFallsBack(t *testing.T) {
	g := testGraph(t)
	path, res := writeTopKFile(t, g, TopKOptions{K: 4})
	probe, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the blob of the shard serving query 0 and flip one byte.
	si := int(probe.qRoute[0])
	off, ln := probe.dir[si].tkOff, probe.dir[si].tkLen
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
	// The default depth is within k, so /stats reports the section serving.
	srv := serverOver(snap, func(c *Config) { c.DefaultTop = 3 })
	h := srv.Handler()

	clean := pipelineServer(t, res, nil)
	for q := 0; q < g.NumQueries(); q++ {
		u := "/rewrite?q=" + g.Query(q) + "&top=3"
		code, body := get(t, h, u)
		wc, wb := get(t, clean, u)
		if code != wc || !bytes.Equal(body, wb) {
			t.Fatalf("GET %s with corrupt blob: %d %q, pipeline %d %q", u, code, body, wc, wb)
		}
	}
	qs := snap.Quarantined()
	if len(qs) == 0 {
		t.Fatal("corrupt blob load left nothing quarantined")
	}
	for _, s := range qs {
		if s.Side != "topk" {
			t.Fatalf("quarantined side %q, want only topk", s.Side)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (degraded): %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("/readyz body %q, want degraded", rec.Body.String())
	}
	// /stats says the parameters match — topk_section.serving stays true —
	// and reports the blob under quarantined, side "topk".
	var stats StatsResponse
	if _, raw := get(t, h, "/stats"); json.Unmarshal(raw, &stats) != nil {
		t.Fatalf("bad /stats body %q", raw)
	}
	if ts := stats.TopKSection; ts == nil || !ts.Present || !ts.Serving {
		t.Errorf("topk_section = %+v with the blob quarantined, want present and serving", ts)
	}
	if len(stats.Quarantined) != len(qs) || stats.Quarantined[0].Side != "topk" {
		t.Errorf("/stats quarantined = %+v, want the topk side", stats.Quarantined)
	}
}
