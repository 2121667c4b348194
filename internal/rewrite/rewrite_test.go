package rewrite

import (
	"errors"
	"slices"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/sparse"
	"simrankpp/internal/stem"
)

// stubSource returns a fixed ranking.
type stubSource struct {
	name string
	out  []sparse.Scored
	err  error
}

func (s *stubSource) Name() string { return s.name }
func (s *stubSource) Rewrites(q, limit int) ([]sparse.Scored, error) {
	if s.err != nil {
		return nil, s.err
	}
	out := s.out
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// pipelineGraph builds a graph whose query strings exercise stemming and
// bid filtering.
func pipelineGraph(t *testing.T) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	queries := []string{"camera", "cameras", "digital camera", "battery", "unbid query"}
	for i, q := range queries {
		if err := b.AddClick(q, "ad"+string(rune('0'+i)), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestPipelineStemDedup(t *testing.T) {
	g := pipelineGraph(t)
	cam, _ := g.QueryID("camera")
	cams, _ := g.QueryID("cameras")
	dig, _ := g.QueryID("digital camera")
	src := &stubSource{name: "stub", out: []sparse.Scored{
		{Node: cams, Score: 0.9}, // stems to "camera" — duplicate of source query
		{Node: dig, Score: 0.8},
	}}
	p := NewPipeline(g, nil)
	got, err := p.Rewrite(src, cam)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Text != "digital camera" {
		t.Errorf("pipeline output = %+v, want only digital camera", got)
	}
}

func TestPipelineBidFilter(t *testing.T) {
	g := pipelineGraph(t)
	cam, _ := g.QueryID("camera")
	bat, _ := g.QueryID("battery")
	unbid, _ := g.QueryID("unbid query")
	src := &stubSource{name: "stub", out: []sparse.Scored{
		{Node: unbid, Score: 0.9},
		{Node: bat, Score: 0.8},
	}}
	p := NewPipeline(g, map[string]bool{"battery": true})
	got, err := p.Rewrite(src, cam)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Text != "battery" {
		t.Errorf("bid filter output = %+v, want only battery", got)
	}
}

func TestPipelineDropsNonPositive(t *testing.T) {
	g := pipelineGraph(t)
	cam, _ := g.QueryID("camera")
	bat, _ := g.QueryID("battery")
	src := &stubSource{name: "stub", out: []sparse.Scored{
		{Node: bat, Score: 0},
	}}
	p := NewPipeline(g, nil)
	got, err := p.Rewrite(src, cam)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("zero-score rewrite survived: %+v", got)
	}
}

func TestPipelineMaxRewrites(t *testing.T) {
	b := clickgraph.NewBuilder()
	for i := 0; i < 10; i++ {
		if err := b.AddClick("query-"+string(rune('a'+i)), "ad", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	var scored []sparse.Scored
	for i := 1; i < 10; i++ {
		scored = append(scored, sparse.Scored{Node: i, Score: 1 / float64(i)})
	}
	p := NewPipeline(g, nil)
	got, err := p.Rewrite(&stubSource{name: "stub", out: scored}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("depth = %d want 5", len(got))
	}
}

// TestPipelineFilterInteraction pins how the stem-dedup, bid-term and
// score filters compose — the cases where the order the filters run in
// could show: only a survivor may claim a stem.
func TestPipelineFilterInteraction(t *testing.T) {
	b := clickgraph.NewBuilder()
	for i, q := range []string{"camera", "cameras", "battery", "batteries", "charger", "chargers", "lens", "tripod"} {
		if err := b.AddClick(q, "ad"+string(rune('0'+i)), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	id := func(q string) int {
		t.Helper()
		n, ok := g.QueryID(q)
		if !ok {
			t.Fatalf("query %q missing from fixture", q)
		}
		return n
	}
	ranked := func(qs ...string) []sparse.Scored {
		out := make([]sparse.Scored, len(qs))
		for i, q := range qs {
			out[i] = sparse.Scored{Node: id(q), Score: 1 - float64(i)/10}
		}
		return out
	}
	bids := func(qs ...string) map[string]bool {
		m := make(map[string]bool)
		for _, q := range qs {
			m[q] = true
		}
		return m
	}

	cases := []struct {
		name string
		raw  []sparse.Scored
		bids map[string]bool
		max  int
		want []string
	}{
		{
			name: "unbid candidate does not claim its stem",
			raw:  ranked("battery", "batteries", "lens"),
			bids: bids("batteries", "lens"),
			want: []string{"batteries", "lens"},
		},
		{
			name: "bid survivor claims its stem",
			raw:  ranked("battery", "batteries", "lens"),
			bids: bids("battery", "batteries", "lens"),
			want: []string{"battery", "lens"},
		},
		{
			name: "source query's stem is dropped even when bid",
			raw:  ranked("cameras", "lens"),
			bids: bids("cameras", "lens"),
			want: []string{"lens"},
		},
		{
			name: "non-positive score is skipped before either filter",
			raw: []sparse.Scored{
				{Node: id("battery"), Score: 0},
				{Node: id("charger"), Score: -0.5},
				{Node: id("batteries"), Score: 0.4},
				{Node: id("chargers"), Score: 0.3},
			},
			bids: bids("battery", "batteries", "charger", "chargers"),
			want: []string{"batteries", "chargers"},
		},
		{
			name: "MaxRewrites stops the walk",
			raw:  ranked("battery", "lens", "tripod", "charger"),
			max:  2,
			want: []string{"battery", "lens"},
		},
		{
			name: "filtered candidates do not count toward MaxRewrites",
			raw:  ranked("cameras", "battery", "batteries", "tripod", "lens", "charger"),
			bids: bids("cameras", "battery", "batteries", "lens", "charger"),
			max:  2,
			want: []string{"battery", "lens"},
		},
		{
			name: "empty non-nil bid set filters everything",
			raw:  ranked("battery", "lens"),
			bids: bids(),
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPipeline(g, tc.bids)
			if tc.max > 0 {
				p.MaxRewrites = tc.max
			}
			got, err := p.Rewrite(&stubSource{name: "stub", out: tc.raw}, id("camera"))
			if err != nil {
				t.Fatal(err)
			}
			var texts []string
			for i, c := range got {
				texts = append(texts, c.Text)
				if c.Query != id(c.Text) {
					t.Errorf("candidate %d: id %d does not name %q", i, c.Query, c.Text)
				}
			}
			if !slices.Equal(texts, tc.want) {
				t.Errorf("survivors = %q, want %q", texts, tc.want)
			}
		})
	}
}

// stemKeyNames is a names source that supplies its own stem keys, the
// way the snapshot builder's per-shard names do.
type stemKeyNames struct {
	*clickgraph.Graph
	asked []int
}

func (n *stemKeyNames) StemKey(id int) string {
	n.asked = append(n.asked, id)
	return "key-" + n.Query(id)[:3]
}

// TestPipelineUsesSourceStemKeys checks the pipeline dedups on the keys
// a names source offers, and asks only for the source query and the
// candidates that passed the bid filter.
func TestPipelineUsesSourceStemKeys(t *testing.T) {
	g := pipelineGraph(t)
	cam, _ := g.QueryID("camera")
	cams, _ := g.QueryID("cameras")
	dig, _ := g.QueryID("digital camera")
	bat, _ := g.QueryID("battery")
	unbid, _ := g.QueryID("unbid query")
	names := &stemKeyNames{Graph: g}
	p := NewPipeline(names, map[string]bool{"cameras": true, "digital camera": true, "battery": true})
	got, err := p.Rewrite(&stubSource{name: "stub", out: []sparse.Scored{
		{Node: unbid, Score: 0.9},
		{Node: cams, Score: 0.8}, // "key-cam", same as the source query
		{Node: dig, Score: 0.7},
		{Node: bat, Score: 0.6},
	}}, cam)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Query != dig || got[1].Query != bat {
		t.Errorf("survivors = %+v, want digital camera then battery", got)
	}
	if want := []int{cam, cams, dig, bat}; !slices.Equal(names.asked, want) {
		t.Errorf("stem keys asked for ids %v, want %v (unbid candidate never stemmed)", names.asked, want)
	}
}

// bidFlagNames is a names source that supplies its own bid flags and stem
// keys, as the snapshot builder's does, and counts what it was asked.
type bidFlagNames struct {
	*clickgraph.Graph
	bids  map[string]bool
	stems []string // stem.Phrase of each query
	flags int
}

func (n *bidFlagNames) BidTerm(id int) bool {
	n.flags++
	return n.bids[n.Query(id)]
}

func (n *bidFlagNames) StemKey(id int) string { return n.stems[id] }

// TestRewriteIntoReusesScratch runs one Scratch over list after list, with
// a names source that holds its bid flags and with one that does not, and
// holds every list to a fresh Rewrite's; the source with flags is asked
// for each candidate's flag and never hashed, and its lists take no
// allocation once the Scratch has grown.
func TestRewriteIntoReusesScratch(t *testing.T) {
	g := pipelineGraph(t)
	bids := map[string]bool{"cameras": true, "digital camera": true, "battery": true}
	var raw []sparse.Scored
	for q := range g.NumQueries() {
		raw = append(raw, sparse.Scored{Node: q, Score: 1 - float64(q)/8})
	}
	src := &stubSource{name: "stub", out: raw}
	names := &bidFlagNames{Graph: g, bids: bids}
	for q := range g.NumQueries() {
		names.stems = append(names.stems, stem.Phrase(g.Query(q)))
	}
	held, plain := NewPipeline(names, bids), NewPipeline(g, bids)
	held.MaxRewrites, plain.MaxRewrites = 0, 0
	var sc Scratch
	for round := 0; round < 2; round++ {
		for q := range g.NumQueries() {
			want, err := plain.Rewrite(src, q)
			if err != nil {
				t.Fatal(err)
			}
			for name, p := range map[string]*Pipeline{"held": held, "plain": plain} {
				got, err := p.RewriteInto(&sc, src, q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s names, query %d: %+v, Rewrite gives %+v", name, q, got, want)
				}
			}
		}
	}
	if want := 2 * g.NumQueries() * len(raw); names.flags != want {
		t.Errorf("bid flags asked %d times, want one per candidate (%d)", names.flags, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := held.RewriteInto(&sc, src, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RewriteInto on a grown Scratch allocated %.0f times a call", allocs)
	}
}

// TestPipelineStemDedupLongList keeps a long list, half of it stem
// duplicates, and runs lists one after another on one Scratch, whose
// claimed keys must not leak from call to call: the survivors are each
// stem's first candidate, bar the source query's stem.
func TestPipelineStemDedupLongList(t *testing.T) {
	b := clickgraph.NewBuilder()
	for i := range 20 {
		for _, q := range []string{"item " + string(rune('a'+i)), "items " + string(rune('a'+i))} {
			if err := b.AddClick(q, "ad", 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	var raw []sparse.Scored
	for q := range g.NumQueries() {
		raw = append(raw, sparse.Scored{Node: q, Score: 1 - float64(q)/100})
	}
	p := NewPipeline(g, nil)
	p.MaxRewrites = 0
	var sc Scratch
	for _, q := range []int{0, 3, 0} {
		got, err := p.RewriteInto(&sc, &stubSource{name: "stub", out: raw}, q)
		if err != nil {
			t.Fatal(err)
		}
		claimed := map[string]bool{stem.Phrase(g.Query(q)): true}
		var want []int
		for _, s := range raw {
			if key := stem.Phrase(g.Query(s.Node)); !claimed[key] {
				claimed[key] = true
				want = append(want, s.Node)
			}
		}
		var ids []int
		for _, c := range got {
			ids = append(ids, c.Query)
		}
		if len(want) != 19 || !slices.Equal(ids, want) {
			t.Fatalf("query %d: kept %v, want %v", q, ids, want)
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	g := pipelineGraph(t)
	p := NewPipeline(g, nil)
	if _, err := p.Rewrite(&stubSource{name: "s"}, -1); err == nil {
		t.Error("accepted negative query id")
	}
	wantErr := errors.New("boom")
	if _, err := p.Rewrite(&stubSource{name: "s", err: wantErr}, 0); err == nil || !errors.Is(err, wantErr) {
		t.Errorf("source error not propagated: %v", err)
	}
}

func TestSourcesEndToEnd(t *testing.T) {
	g := clickgraph.Fig3()
	cfg := core.DefaultConfig()
	res, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := g.QueryID("pc")

	sources := []Source{
		&ResultSource{Index: res},
		&PearsonSource{Graph: g, Channel: core.ChannelClicks},
	}
	for _, src := range sources {
		if src.Name() == "" {
			t.Errorf("%T has empty name", src)
		}
		out, err := src.Rewrites(pc, 3)
		if err != nil {
			t.Fatalf("%s: %v", src.Name(), err)
		}
		if len(out) > 3 {
			t.Errorf("%s ignored limit: %d results", src.Name(), len(out))
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].Score < out[i].Score {
				t.Errorf("%s results not sorted", src.Name())
			}
		}
	}

	// The SimRank source must surface the indirect pc-tv rewrite that
	// Pearson cannot see.
	simOut, err := sources[0].Rewrites(pc, -1)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := g.QueryID("tv")
	foundTV := false
	for _, s := range simOut {
		if s.Node == tv {
			foundTV = true
		}
	}
	if !foundTV {
		t.Error("SimRank source missed the indirect pc-tv rewrite")
	}
	pearOut, err := sources[1].Rewrites(pc, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pearOut {
		if s.Node == tv {
			t.Error("Pearson source claims pc-tv similarity without common ads")
		}
	}
}

func TestResultSourceLabel(t *testing.T) {
	g := clickgraph.Fig3()
	res, err := core.Run(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if name := (&ResultSource{Index: res}).Name(); name != "simrank" {
		t.Errorf("default name = %q", name)
	}
	if name := (&ResultSource{Index: res, Label: "custom"}).Name(); name != "custom" {
		t.Errorf("label override = %q", name)
	}
}
