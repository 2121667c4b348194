package clickgraph_test

import (
	"bytes"
	"slices"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
)

// TestReadWriteRoundTrip: Read(Write(g)) is g with every id kept — names,
// edges and the fingerprint the incremental pipeline keys on — for a graph
// whose arrival order a re-interning reader would shuffle: an isolated
// query and an isolated ad added between edges, and an ad first seen on a
// late edge of the first query. Writing the result again gives the same
// bytes.
func TestReadWriteRoundTrip(t *testing.T) {
	b := clickgraph.NewBuilder()
	add := func(q, a string, w clickgraph.EdgeWeights) {
		t.Helper()
		if err := b.AddEdge(q, a, w); err != nil {
			t.Fatal(err)
		}
	}
	add("camera", "hp.com", clickgraph.EdgeWeights{Impressions: 10, Clicks: 2, ExpectedClickRate: 0.25})
	b.AddQuery("isolated query")
	b.AddAd("isolated-ad.com")
	add("digital camera", "hp.com", clickgraph.EdgeWeights{Impressions: 7, Clicks: 1, ExpectedClickRate: 0.125})
	add("digital camera", "bestbuy.com", clickgraph.EdgeWeights{Impressions: 3, Clicks: 0, ExpectedClickRate: 0.1})
	add("camera", "late-ad.com", clickgraph.EdgeWeights{Impressions: 5, Clicks: 5, ExpectedClickRate: 1})
	g := b.Build()

	var text bytes.Buffer
	if err := clickgraph.Write(&text, g); err != nil {
		t.Fatal(err)
	}
	written := slices.Clone(text.Bytes())
	g2, err := clickgraph.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g2.Queries(), g.Queries()) || !slices.Equal(g2.Ads(), g.Ads()) {
		t.Fatalf("ids moved: queries %q ads %q, want %q %q", g2.Queries(), g2.Ads(), g.Queries(), g.Ads())
	}
	if got, want := edgeList(g2), edgeList(g); !slices.Equal(got, want) {
		t.Fatalf("edges %v, want %v", got, want)
	}
	if got, want := partition.GraphFingerprint(g2), partition.GraphFingerprint(g); got != want {
		t.Fatalf("fingerprint %016x, want %016x", got, want)
	}
	text.Reset()
	if err := clickgraph.Write(&text, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), written) {
		t.Fatalf("second Write differs:\n%s\nfirst:\n%s", text.Bytes(), written)
	}
}

type idEdge struct {
	q, a int
	w    clickgraph.EdgeWeights
}

func edgeList(g *clickgraph.Graph) []idEdge {
	var out []idEdge
	g.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
		out = append(out, idEdge{q, a, w})
		return true
	})
	return out
}
