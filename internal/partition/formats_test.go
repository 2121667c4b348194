package partition

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"simrankpp/internal/clickgraph"
)

// TestFormatGoldenPlan reads the plan file written once for
// testdata/fig3.graph under a 9-node shard budget (root formats_test.go
// says how) and frozen since — files written by an older build must keep
// reading — and checks the decomposition it decodes to: fig3's two
// components, a shard each, with the fingerprints the golden snapshot's
// directory carries, still covering the graph they were planned for.
func TestFormatGoldenPlan(t *testing.T) {
	plan, err := ReadPlanFile(filepath.Join("..", "..", "testdata", "formats", "fig3.plan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 2 || !plan.Exact || plan.TotalCutEdges != 0 || plan.NumQueries != 5 || plan.NumAds != 7 {
		t.Fatalf("decoded %d shards (exact %v, %d cut edges) over %d queries and %d ads; want 2 exact shards over 5 and 7",
			len(plan.Shards), plan.Exact, plan.TotalCutEdges, plan.NumQueries, plan.NumAds)
	}
	big, small := plan.Shards[0], plan.Shards[1]
	if !slices.Equal(big.Queries, []int{0, 1, 2, 3}) || !slices.Equal(big.Ads, []int{0, 1, 2, 3, 4}) ||
		!slices.Equal(small.Queries, []int{4}) || !slices.Equal(small.Ads, []int{5, 6}) {
		t.Errorf("shards hold %v/%v and %v/%v", big.Queries, big.Ads, small.Queries, small.Ads)
	}
	if big.Fingerprint != 0x0dab0f1dccecf775 || small.Fingerprint != 0x5781c7945c81c123 || !big.Exact || big.CutEdges != 0 {
		t.Errorf("shard fingerprints %016x %016x (exact %v, %d cut edges)", big.Fingerprint, small.Fingerprint, big.Exact, big.CutEdges)
	}

	f, err := os.Open(filepath.Join("..", "..", "testdata", "fig3.graph"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := clickgraph.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(g); err != nil {
		t.Errorf("the plan no longer covers fig3: %v", err)
	}
	if g.Query(small.Queries[0]) != "flower" {
		t.Errorf("the small shard's query is %q, want flower", g.Query(small.Queries[0]))
	}
}
