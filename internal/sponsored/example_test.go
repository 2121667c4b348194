package sponsored_test

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/sponsored"
	"simrankpp/internal/workload"
)

// Simulate runs the paper's Figure 1–2 system end to end: a synthetic
// advertiser/query universe, two weeks of sponsored-search traffic that
// leave a historical click graph, weighted Simrank++ rewrites in the
// front-end, and a back-end that can now auction ads for a query with no
// direct bids.
func ExampleSimulate() {
	// The latent ground truth: an intent hierarchy with queries and ads.
	ucfg := workload.DefaultUniverseConfig()
	ucfg.Categories = 8
	u, err := workload.BuildUniverse(ucfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("universe: %d intents, %d queries, %d ads\n",
		len(u.Intents), len(u.Queries), len(u.Ads))

	// The historical log: bids, auctions, position-biased clicks.
	scfg := sponsored.DefaultConfig()
	scfg.Sessions = 300000
	res, err := sponsored.Simulate(u, scfg)
	if err != nil {
		log.Fatal(err)
	}
	g := res.Graph
	st := clickgraph.ComputeStats(g)
	fmt.Printf("click graph: %d queries, %d ads, %d edges (%d sessions served)\n\n",
		st.Queries, st.Ads, st.Edges, res.Sessions)

	// The front-end: weighted Simrank++ over the click graph, with the
	// evaluation pipeline's stem dedup and bid-term filtering.
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.PruneEpsilon = 1e-5
	simres, err := core.Run(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	pipe := rewrite.NewPipeline(g, res.BidTerms)

	// The first query in the graph whose own text has no bids: the case
	// the architecture exists for, where without rewrites the back-end
	// has nothing to auction.
	target := 0
	for q := range g.NumQueries() {
		if !res.BidTerms[g.Query(q)] && g.QueryDegree(q) > 0 {
			target = q
			break
		}
	}
	fmt.Printf("incoming query: %q (has direct bids: %v)\n",
		g.Query(target), res.BidTerms[g.Query(target)])
	cands, err := pipe.Rewrite(&rewrite.ResultSource{Index: simres}, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("front-end rewrites (bid-filtered, stem-deduped):")
	for i, c := range cands {
		fmt.Printf("  %d. %-34s score %.4f\n", i+1, c.Text, c.Score)
	}

	// The back-end: the ads with bids on the rewrites are now
	// auctionable for the original query.
	adSet := map[int]bool{}
	for _, c := range cands {
		uq, ok := u.QueryByText(c.Text)
		if !ok {
			continue
		}
		for _, b := range res.Bids {
			if b.Query == uq.ID {
				adSet[b.Ad] = true
			}
		}
	}
	fmt.Printf("\nback-end: %d distinct ads now auctionable for %q via rewrites\n",
		len(adSet), g.Query(target))
	ads := slices.Sorted(maps.Keys(adSet))
	for _, ad := range ads[:min(5, len(ads))] {
		fmt.Printf("  - %s\n", u.Ads[ad].Name)
	}
	// Output:
	// universe: 288 intents, 977 queries, 805 ads
	// click graph: 967 queries, 784 ads, 3388 edges (295218 sessions served)
	//
	// incoming query: "veli beki bidepo jeto" (has direct bids: false)
	// front-end rewrites (bid-filtered, stem-deduped):
	//   1. veli beki culodi fopu              score 0.2312
	//   2. veli habe tecoki                   score 0.2147
	//   3. veli beki macihi                   score 0.2038
	//   4. veli beki bidepo malu              score 0.1005
	//   5. veli beki rakabi keka              score 0.0811
	//
	// back-end: 13 distinct ads now auctionable for "veli beki bidepo jeto" via rewrites
	//   - ad-0-0.example.com
	//   - ad-1-0.example.com
	//   - ad-1-3.example.com
	//   - ad-2-0.example.com
	//   - ad-3-0.example.com
}
