package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
	"simrankpp/internal/stem"
)

// refStats counts what a reference build went through, so a test can tell
// its fixture reached the paths it is meant to.
type refStats struct {
	stemDrops    int // candidates the stem filter dropped
	longRows     int // rankings longer than the candidate pool
	boundaryTies int // of those, rankings whose last pooled candidate ties the first one cut
}

func (s *refStats) add(o refStats) {
	s.stemDrops += o.stemDrops
	s.longRows += o.longRows
	s.boundaryTies += o.boundaryTies
}

// referenceTopKBlob is the section builder as first written, kept here
// as the definition buildTopKBlob is held to: partner lists in a map,
// the reflection sort of every whole list, and for every query a fresh
// filter that stems each candidate before looking at the bid list — no
// shared stems, no shared pipeline, no candidate dropped before the
// filter sees it.
func referenceTopKBlob(qSeg []byte, qIDs []int, g *clickgraph.Graph, tk topkMeta, bids map[string]bool) (blob []byte, st refStats) {
	if tk.k == 0 {
		return nil, st
	}
	ids := append([]int(nil), qIDs...)
	sort.Ints(ids)
	partners := make(map[int][]sparse.Scored)
	for o := 0; o+pairRecordSize <= len(qSeg); o += pairRecordSize {
		i := int(binary.LittleEndian.Uint32(qSeg[o:]))
		j := int(binary.LittleEndian.Uint32(qSeg[o+4:]))
		v := math.Float64frombits(binary.LittleEndian.Uint64(qSeg[o+8:]))
		partners[i] = append(partners[i], sparse.Scored{Node: j, Score: v})
		partners[j] = append(partners[j], sparse.Scored{Node: i, Score: v})
	}

	entries := make([]byte, 4+len(ids)*topkEntrySize)
	binary.LittleEndian.PutUint32(entries, uint32(len(ids)))
	var lists []byte
	for e, qid := range ids {
		ranked := partners[qid]
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].Score != ranked[b].Score {
				return ranked[a].Score > ranked[b].Score
			}
			return ranked[a].Node < ranked[b].Node
		})
		if len(ranked) > int(tk.topN) {
			st.longRows++
			if ranked[tk.topN-1].Score == ranked[tk.topN].Score {
				st.boundaryTies++
			}
			ranked = ranked[:tk.topN]
		}
		seen := map[string]bool{stem.Phrase(g.Query(qid)): true}
		var kept []sparse.Scored
		for _, s := range ranked {
			if s.Score <= 0 {
				continue
			}
			text := g.Query(s.Node)
			key := stem.Phrase(text)
			if seen[key] {
				st.stemDrops++
				continue
			}
			if bids != nil && !bids[text] {
				continue
			}
			seen[key] = true
			kept = append(kept, s)
			if len(kept) >= int(tk.k) {
				break
			}
		}
		o := 4 + e*topkEntrySize
		binary.LittleEndian.PutUint32(entries[o:], uint32(qid))
		binary.LittleEndian.PutUint32(entries[o+4:], uint32(len(entries)+len(lists)))
		binary.LittleEndian.PutUint32(entries[o+8:], uint32(len(kept)))
		for _, s := range kept {
			lists = binary.LittleEndian.AppendUint32(lists, uint32(s.Node))
			lists = binary.LittleEndian.AppendUint64(lists, math.Float64bits(s.Score))
		}
	}
	return append(entries, lists...), st
}

// stemGraph is refreshGraph's shape — four clusters, weights derived
// from seeds[c] — but each cluster is one component (one shard) and its
// query names come in singular/plural pairs, so the stem filter has
// duplicates to drop inside every shard.
func stemGraph(t *testing.T, seeds [4]int) *clickgraph.Graph {
	words := []string{
		"camera", "cameras", "battery", "batteries", "charger", "chargers",
		"lens", "lenses", "tripod", "tripods", "flash", "flashes",
	}
	return clusterGraph(t, seeds, len(words),
		func(c, q int) string { return fmt.Sprintf("c%d digital %s", c, words[q]) },
		func(q, a int) bool { return (q+a)%3 != 2 })
}

type bidCase struct {
	name string
	bids map[string]bool
}

// bidCases are the bid lists every reference comparison runs under: none,
// every third query of g from id from up, and an empty one (nothing is bid
// on).
func bidCases(g *clickgraph.Graph, from int) []bidCase {
	sparseBids := map[string]bool{}
	for q := from; q < g.NumQueries(); q += 3 {
		sparseBids[g.Query(q)] = true
	}
	return []bidCase{
		{"no bid list", nil},
		{"sparse bid list", sparseBids},
		{"empty bid list", map[string]bool{}},
	}
}

// checkTopKBlobsMatchReference holds every shard blob WriteSnapshotTopK
// writes for g0 (one shard per component), and every blob assembleRefresh
// then writes for g1, to the reference builder, byte for byte. It returns
// what the reference builds went through.
func checkTopKBlobsMatchReference(t *testing.T, g0, g1 *clickgraph.Graph, opts TopKOptions) refStats {
	t.Helper()
	tk := opts.meta()
	var st refStats
	// want returns the reference blob for a shard's encoded query segment.
	want := func(qSeg []byte, qIDs []int, g *clickgraph.Graph) []byte {
		blob, s := referenceTopKBlob(qSeg, qIDs, g, tk, opts.BidTerms)
		st.add(s)
		return blob
	}

	plan := partition.ComponentPlan(g0)
	res0, err := core.RunSharded(g0, refreshCfg(), plan, core.ShardOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) < 2 {
		t.Fatalf("fixture produced %d shards, want one per cluster", len(plan.Shards))
	}
	var buf0 imageBuffer
	if err := WriteSnapshotTopK(&buf0, res0, opts); err != nil {
		t.Fatal(err)
	}
	prev, err := NewSnapshot(bytes.NewReader(buf0.Bytes()), int64(buf0.Len()))
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()
	for i, sh := range plan.Shards {
		got, err := prev.segmentBytes("topk", i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want(encodeSegment(res0.QueryScores, sh.Queries), sh.Queries, g0)) {
			t.Errorf("WriteSnapshotTopK shard %d: blob differs from the reference builder's", i)
		}
	}

	run1, diff := runStep(t, g1, prev, 3)
	var buf1 imageBuffer
	rs, _, err := assembleRefresh(&buf1, prev, run1, opts.BidTerms)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DirtyShards == 0 || rs.CleanShards == 0 {
		t.Fatalf("refresh rebuilt %d shards and copied %d; want a mix", rs.DirtyShards, rs.CleanShards)
	}
	next, err := NewSnapshot(bytes.NewReader(buf1.Bytes()), int64(buf1.Len()))
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	for i, dirty := range diff.Dirty {
		got, err := next.segmentBytes("topk", i)
		if err != nil {
			t.Fatal(err)
		}
		var wantBlob []byte
		if dirty {
			wantBlob = want(encodeSegment(run1.QueryScores, diff.Plan.Shards[i].Queries), diff.Plan.Shards[i].Queries, g1)
		} else if wantBlob, err = prev.segmentBytes("topk", i); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBlob) {
			t.Errorf("assembleRefresh shard %d (dirty=%v): blob differs from the reference", i, dirty)
		}
	}
	return st
}

// TestTopKBlobsMatchReference holds the blobs of stemGraph's four short-row
// shards to the reference builder under each bid case, and those of
// pathbenchGraph's four shards — pathbench's names, rows shorter and
// longer than the pool — at pathbench's depth (K = 100) under no bid list,
// pathbench's every-16th one and an empty one. Run under -race it also
// shows the per-shard stems are not shared between the snapshot writer's
// shard workers.
func TestTopKBlobsMatchReference(t *testing.T) {
	g0 := stemGraph(t, [4]int{1, 2, 3, 4})
	g1 := stemGraph(t, [4]int{1, 2, 9, 4}) // cluster 2 churned
	for _, tc := range bidCases(g0, 0) {
		t.Run(tc.name, func(t *testing.T) {
			st := checkTopKBlobsMatchReference(t, g0, g1, TopKOptions{K: 4, BidTerms: tc.bids})
			if st.stemDrops == 0 {
				t.Fatal("the stem filter dropped nothing; the fixture no longer exercises it")
			}
		})
	}
	p0, p1 := pathbenchGraph(t, 0), pathbenchGraph(t, 4) // the second cluster churned
	for _, tc := range []bidCase{{"no bid list", nil}, {"stride16", stride16(p0)}, {"empty bid list", map[string]bool{}}} {
		t.Run("pathbench/"+tc.name, func(t *testing.T) {
			st := checkTopKBlobsMatchReference(t, p0, p1, TopKOptions{K: DefaultRewriteTopK, BidTerms: tc.bids})
			if st.stemDrops == 0 || st.longRows == 0 {
				t.Fatalf("the stem filter dropped %d candidates and %d rankings outran the pool; the fixture needs both", st.stemDrops, st.longRows)
			}
		})
	}
}

// pathbenchGraph is pathbench's shape at test scale: four clusters (one
// component, so one shard, each) of 130, 48, 20 and 105 queries, every
// query clicking three of its cluster's six ads, so the first and last
// clusters' rows are longer than the 100-candidate pool and the others'
// shorter. Names are pathbenchName's phrases over the shared vocabulary
// with a unique token, varied as real logs are: every seventh in upper
// case, some with tabs or runs of blanks for separators, one with a
// non-ASCII word and space, and every ninth its predecessor's name with
// an "s" on its token, which stems to the same key. churn adds to the
// second cluster's clicks, so a second value churns that shard alone.
func pathbenchGraph(t *testing.T, churn int64) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	for c, nq := range []int{130, 48, 20, 105} {
		for q := 0; q < nq; q++ {
			name := pathbenchName(c, q)
			switch {
			case q%9 == 4:
				name = pathbenchName(c, q-1) + "s"
			case q%7 == 3:
				name = strings.ToUpper(name)
			case q%7 == 5:
				name = strings.Replace(name, " ", "\t", 1)
			case q%11 == 6:
				name = strings.Replace(name, " ", " \t  ", 2)
			}
			if c == 2 && q == 1 {
				name = "Café\u00a0" + name
			}
			for k := 0; k < 3; k++ {
				clicks := int64((q*3+k+c)%9 + 1)
				if c == 1 {
					clicks += churn
				}
				w := clickgraph.EdgeWeights{Impressions: clicks * 3, Clicks: clicks, ExpectedClickRate: float64((q*7+k*13+c)%90+5) / 100}
				if err := b.AddEdge(name, fmt.Sprintf("pb%d-a%d", c, (q*5+c+k)%6), w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

// longRowGraph is one dense cluster of 160 queries beside a small one
// (stemGraph's first cluster), each its own component. Every click
// weighs the same, so the 140 queries that click only ad 0 score
// bit-identically against each other and against each of the 8 bridge
// queries that click every ad of the cluster: their rankings, 159 long,
// are cut to the pool inside a tie, where the id decides. The remaining 12
// queries spread over the other ads give the rows lower score levels, and
// names come in singular/plural pairs for the stem filter. bridgeClicks
// weighs the bridges' edges, so a second value churns the dense cluster
// alone.
func longRowGraph(t *testing.T, bridgeClicks int64) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	add := func(q, a string, clicks int64) {
		w := clickgraph.EdgeWeights{Impressions: clicks * 3, Clicks: clicks, ExpectedClickRate: 0.5}
		if err := b.AddEdge(q, a, w); err != nil {
			t.Fatal(err)
		}
	}
	words := []string{"camera", "cameras"}
	for q := 0; q < 160; q++ {
		name := fmt.Sprintf("dense %s %d", words[q%2], q/2)
		switch {
		case q < 8:
			for a := 0; a < 8; a++ {
				add(name, fmt.Sprintf("dense-a%d", a), bridgeClicks)
			}
		case q < 148:
			add(name, "dense-a0", 5)
		default:
			add(name, fmt.Sprintf("dense-a%d", 1+(q-148)%7), 5)
		}
	}
	small := stemGraph(t, [4]int{1, 2, 3, 4})
	for q := 0; q < 12; q++ {
		ads, _ := small.AdsOf(q)
		for _, a := range ads {
			add(small.Query(q), small.Ad(a), 3)
		}
	}
	return b.Build()
}

// TestTopKBlobsMatchReferenceLongRows is the reference comparison on rows
// longer than the candidate pool, which buildTopKBlob selects before it
// sorts: at K = 4 (a pool of 100) and K = 128 (a pool of 128), under each
// bid case, with ties straddling the pool boundary. The sparse bid list
// starts at id 96, so a pool ends a few bid partners in — fewer than
// either depth — and a bid partner just past the boundary would be the
// next survivor if one leaked in.
func TestTopKBlobsMatchReferenceLongRows(t *testing.T) {
	g0 := longRowGraph(t, 5)
	g1 := longRowGraph(t, 7)
	for _, k := range []int{4, 128} {
		for _, tc := range bidCases(g0, 96) {
			t.Run(fmt.Sprintf("K=%d/%s", k, tc.name), func(t *testing.T) {
				st := checkTopKBlobsMatchReference(t, g0, g1, TopKOptions{K: k, BidTerms: tc.bids})
				if st.longRows == 0 || st.boundaryTies == 0 {
					t.Fatalf("%d rankings outran the pool, %d of them tied across its boundary; the fixture needs both", st.longRows, st.boundaryTies)
				}
				if st.stemDrops == 0 {
					t.Fatal("the stem filter dropped nothing; the fixture no longer exercises it")
				}
			})
		}
	}
}

// TestShardNamesMatchPhrase pins shardNames' stem keys, built through the
// worker's word map, to stem.Phrase, name by name, for every query of the
// serve fixtures and for names strings.Fields has to collapse (repeated
// spaces, tabs, leading and trailing blanks, the empty name) or has to
// split on non-ASCII space, on the whole graph's shard and on a shard given
// its ids out of order; and its bid flags to the bid list. One shardNames
// is reset for every case, as a writer worker reuses its own.
func TestShardNamesMatchPhrase(t *testing.T) {
	odd := queryGraph([]string{
		"digital  cameras", "\tcameras\t\tbatteries ", " lenses", "tripods ", "",
		"Flashes FLASH", "a b  c", "camera\tcameras", "relational  rational\t",
		"Café\u00a0CAMERAS", "naïve\u2003relational batteries", "ÉCOLE  Straße",
	})
	var s shardNames
	_, bench := benchShard(4, false)
	_, benchNames := benchShard(4, true)
	for name, names := range map[string]*clickgraph.Graph{
		"stemGraph":      stemGraph(t, [4]int{1, 2, 3, 4}),
		"refreshGraph":   refreshGraph(t, [4]int{1, 2, 3, 4}),
		"longRowGraph":   longRowGraph(t, 5),
		"benchShard":     bench,
		"pathbench":      benchNames,
		"pathbenchGraph": pathbenchGraph(t, 0),
		"blanks":         odd,
	} {
		bids := map[string]bool{}
		var qIDs []int
		for q := names.NumQueries() - 1; q >= 0; q -= 2 {
			bids[names.Query(q)] = true
			qIDs = append(qIDs, q)
		}
		for _, ids := range [][]int{allQueries(names), qIDs} {
			s.reset(names, ids, bids)
			if s.NumQueries() != len(ids) {
				t.Fatalf("%s: shard holds %d queries", name, s.NumQueries())
			}
			for p, id := range s.ids {
				q := names.Query(id)
				if s.Query(p) != q {
					t.Errorf("%s: position %d names %q, want %q", name, p, s.Query(p), q)
				}
				if got, want := s.StemKey(p), stem.Phrase(q); got != want {
					t.Errorf("%s: stem of %q = %q, stem.Phrase gives %q", name, q, got, want)
				}
				if s.bid[p] != bids[q] {
					t.Errorf("%s: bid flag of %q = %v, want %v", name, q, s.bid[p], bids[q])
				}
			}
		}
		if s.reset(names, qIDs, nil); s.bid != nil {
			t.Errorf("%s: bid flags without a bid list", name)
		}
	}
}

// TestBuildTopKBlobIdentityShard covers partition.WholePlan's one shard,
// whose id list is every query, so positions are the ids.
func TestBuildTopKBlobIdentityShard(t *testing.T) {
	g := stemGraph(t, [4]int{1, 2, 3, 4})
	res, err := core.Run(g, refreshCfg())
	if err != nil {
		t.Fatal(err)
	}
	tk := TopKOptions{K: 4}.meta()
	ids := partition.WholePlan(g).Shards[0].Queries
	qSeg := encodeSegment(res.QueryScores, ids)
	got, err := buildTopKBlob(qSeg, ids, g, tk, nil, new(topkScratch))
	if err != nil {
		t.Fatal(err)
	}
	want, st := referenceTopKBlob(qSeg, ids, g, tk, nil)
	if st.stemDrops == 0 {
		t.Fatal("the stem filter dropped nothing; the fixture no longer exercises it")
	}
	if !bytes.Equal(got, want) {
		t.Error("identity-shard blob differs from the reference builder's")
	}
}

// TestBuildTopKBlobRejectsForeignPair: a segment pair naming a query the
// shard's id list does not hold — or the graph does not — is a fault, not
// a list to drop silently; and since the builder relies on positions that
// rise along the segment, so is a segment whose records do not ascend by
// (i, j) with i < j: a position that does not rise past the last one must
// be refused.
func TestBuildTopKBlobRejectsForeignPair(t *testing.T) {
	g := stemGraph(t, [4]int{1, 2, 3, 4})
	tk := TopKOptions{K: 4}.meta()
	shard := []int{0, 2, 5, 9}
	good := [][3]float64{{0, 2, 0.5}, {0, 9, 0.25}, {2, 5, 0.125}, {5, 9, 0.75}}
	all := allQueries(g)
	for _, qIDs := range [][]int{shard, all} {
		if _, err := buildTopKBlob(makeSegBytes(t, good), qIDs, g, tk, nil, new(topkScratch)); err != nil {
			t.Errorf("ids %v: a well-formed segment was refused: %v", qIDs, err)
		}
	}
	for name, recs := range map[string][][3]float64{
		"i below the shard's next id": {{1, 2, 0.5}},
		"i past the shard's last id":  {{0, 2, 0.5}, {40, 41, 0.5}},
		"j between two shard ids":     {{0, 3, 0.5}},
		"j past the shard's last id":  {{0, 2, 0.5}, {2, 40, 0.25}},
		"j past the graph's last id":  {{0, 2, 0.5}, {2, 1 << 30, 0.25}},
		"i past the graph's last id":  {{1 << 30, 1<<30 + 1, 0.5}},
		"rows descend":                {{2, 5, 0.5}, {0, 2, 0.25}},
		"a row resumes":               {{0, 2, 0.5}, {2, 5, 0.5}, {0, 9, 0.25}},
		"columns descend in a row":    {{0, 5, 0.5}, {0, 2, 0.25}},
		"a pair repeats":              {{0, 2, 0.5}, {0, 2, 0.5}},
		"j below i":                   {{5, 2, 0.5}},
		"j equals i":                  {{2, 2, 0.5}},
	} {
		if _, err := buildTopKBlob(makeSegBytes(t, recs), shard, g, tk, nil, new(topkScratch)); err == nil {
			t.Errorf("%s: buildTopKBlob accepted %v over ids %v", name, recs, shard)
		}
	}
	// The whole graph's shard holds every query, so only the order can be
	// wrong.
	if _, err := buildTopKBlob(makeSegBytes(t, [][3]float64{{0, 1, 0.5}, {1, 40, 0.25}}), all, g, tk, nil, new(topkScratch)); err != nil {
		t.Errorf("identity shard holds every query, got %v", err)
	}
	if _, err := buildTopKBlob(makeSegBytes(t, [][3]float64{{1, 40, 0.25}, {0, 1, 0.5}}), all, g, tk, nil, new(topkScratch)); err == nil {
		t.Error("identity shard: rows out of order were accepted")
	}
}

// TestTopKBlobLenOverflow drives the bound both writers of the blob
// layout's u32 offsets share; a blob that large cannot be built in a
// test.
func TestTopKBlobLenOverflow(t *testing.T) {
	limit := int64(math.MaxUint32)
	if int64(int(limit)) != limit {
		t.Skip("int cannot hold a length past 4 GiB on this platform")
	}
	if err := checkTopKBlobLen(int(limit)); err != nil {
		t.Errorf("length %d fits a u32, got %v", limit, err)
	}
	if err := checkTopKBlobLen(int(limit + 1)); err == nil {
		t.Errorf("length %d wraps a u32 and was accepted", limit+1)
	}
}

// TestBuildTopKBlobAllocs bounds what a buildTopKBlob call allocates once
// its scratch is warm, as a writer worker's is after its first shards: the
// blob and the shard's stem keys, per shard, however many queries the shard
// holds — not a stem, a filter or a list per query. benchShard's 400
// queries are run under both name shapes, both row lengths and both bid
// cases of BenchmarkBuildTopKBlob.
func TestBuildTopKBlobAllocs(t *testing.T) {
	const perShard = 3 // the blob, the keys, and the scratch's rare growth
	for _, pathbench := range []bool{false, true} {
		for _, half := range []int{32, 80} {
			qSeg, g := benchShard(half, pathbench)
			ids := allQueries(g)
			for _, bids := range []map[string]bool{stride16(g), nil} {
				tk := TopKOptions{K: DefaultRewriteTopK, BidTerms: bids}.meta()
				sc := new(topkScratch)
				build := func() {
					if _, err := buildTopKBlob(qSeg, ids, g, tk, bids, sc); err != nil {
						t.Fatal(err)
					}
				}
				for range 3 { // past the scratch's first growth
					build()
				}
				allocs := testing.AllocsPerRun(10, build)
				t.Logf("pathbench=%v rows=%d bids=%v: %.1f allocations a call, %d queries", pathbench, 2*half, bids != nil, allocs, len(ids))
				if allocs > perShard {
					t.Errorf("pathbench=%v rows=%d bids=%v: %.1f allocations a call over %d queries, want at most %d a shard",
						pathbench, 2*half, bids != nil, allocs, len(ids), perShard)
				}
			}
		}
	}
}

// queryGraph is a graph of the given distinct query names and no edges.
func queryGraph(names []string) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for _, q := range names {
		b.AddQuery(q)
	}
	return b.Build()
}

// allQueries is g's every query id, ascending: WholePlan's id list.
func allQueries(g *clickgraph.Graph) []int {
	return partition.WholePlan(g).Shards[0].Queries
}

// benchShard builds one shard of pathbench's shape: 400 queries with
// distinct names, every query scored against its 2·half ring neighbours.
// Names are three syllable words, or with pathbench set phrases over
// pathbench's shared vocabulary plus a unique token (pathbenchName).
func benchShard(half int, pathbench bool) (qSeg []byte, g *clickgraph.Graph) {
	const n = 400
	syll := []string{"ve", "li", "be", "ki", "ma", "ci", "hi", "ro", "nu", "ta", "so", "pe"}
	x := uint64(1)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	word := func() string {
		var w []byte
		for s := 0; s < 2+int(next()%3); s++ {
			w = append(w, syll[next()%uint64(len(syll))]...)
		}
		if next()%4 == 0 {
			w = append(w, 's')
		}
		return string(w)
	}
	names := make([]string, 0, n)
	seen := map[string]bool{}
	for len(names) < n {
		name := word() + " " + word() + " " + word()
		if pathbench {
			name = pathbenchName(7, len(names))
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if j-i > half && i+n-j > half {
				continue
			}
			qSeg = binary.LittleEndian.AppendUint32(qSeg, uint32(i))
			qSeg = binary.LittleEndian.AppendUint32(qSeg, uint32(j))
			qSeg = binary.LittleEndian.AppendUint64(qSeg, math.Float64bits(float64(next()%1e6+1)/1e6))
		}
	}
	return qSeg, queryGraph(names)
}

// pathbenchVocab is pathbench's shared vocabulary (pathbench/gen.go).
var pathbenchVocab = [3][]string{
	{"discounted", "refurbished", "wireless", "professional", "portable", "vintage", "waterproof", "ergonomic",
		"compact", "digital", "organic", "handmade", "industrial", "luxury", "budget", "certified"},
	{"cameras", "batteries", "running shoes", "coffee makers", "headphones", "mattresses", "sunglasses", "printers",
		"guitars", "watches", "backpacks", "blenders", "keyboards", "telescopes", "luggage", "speakers"},
	{"accessories", "comparison", "reviews", "warranty", "shipping", "clearance", "bundles", "replacement",
		"installation", "financing", "ratings", "deals", "repairs", "manuals", "coupons", "pricing"},
}

// pathbenchName names query q of cluster c as pathbench does: three words
// of the shared vocabulary, picked by a hash, and the cluster-unique token
// that keeps names distinct.
func pathbenchName(c, q int) string {
	h := uint64(q)*2654435761 + uint64(c)*97
	return fmt.Sprintf("%s %s %s c%d-q%d",
		pathbenchVocab[0][h%16], pathbenchVocab[1][(h/31)%16], pathbenchVocab[2][(h/997)%16], c, q)
}

// stride16 is pathbench's bid list: every 16th query of g.
func stride16(g *clickgraph.Graph) map[string]bool {
	bids := map[string]bool{}
	for q := 0; q < g.NumQueries(); q += 16 {
		bids[g.Query(q)] = true
	}
	return bids
}

// BenchmarkBuildTopKBlob times the precomputed-section builder on one
// shard, under the sparse bid list pathbench builds with (every 16th
// query) and under none — the first ranks only the bid partners, the
// second every partner in the pool — on rows of pathbench's cluster
// length (64) and on rows longer than the 100-candidate pool (160), which
// are selected before they are sorted. Names are syllable words, or with
// names=pathbench pathbench's own (a shared vocabulary plus a unique
// token), whose stems are what serve.write_snapshot pays for.
func BenchmarkBuildTopKBlob(b *testing.B) {
	for _, names := range []string{"syllables", "pathbench"} {
		for _, half := range []int{32, 80} {
			qSeg, g := benchShard(half, names == "pathbench")
			ids := allQueries(g)
			for _, bc := range []struct {
				name string
				bids map[string]bool
			}{{"bids=stride16", stride16(g)}, {"bids=none", nil}} {
				opts := TopKOptions{K: DefaultRewriteTopK, BidTerms: bc.bids}
				b.Run(fmt.Sprintf("names=%s/rows=%d/%s", names, 2*half, bc.name), func(b *testing.B) {
					sc := new(topkScratch) // reused, as a writer worker reuses its own
					b.ReportAllocs()
					for b.Loop() {
						if _, err := buildTopKBlob(qSeg, ids, g, opts.meta(), bc.bids, sc); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
