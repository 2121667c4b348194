// Sponsoredsearch runs the full Figure 1-2 system end to end: generate a
// synthetic advertiser/query universe, simulate two weeks of sponsored
// search traffic to obtain a historical click graph, compute weighted
// Simrank++ rewrites in the front-end, and show how rewriting lets the
// back-end serve ads for a query that has no direct bids.
//
//	go run ./examples/sponsoredsearch
package main

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

func main() {
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
	src := &rewrite.ResultSource{Index: simres}

	// Find a query in the graph whose own text has no bids — the case
	// the paper's architecture exists for: without rewrites the back-end
	// has nothing to auction.
	target := -1
	for q := 0; q < g.NumQueries() && target < 0; q++ {
		if !res.BidTerms[g.Query(q)] && g.QueryDegree(q) > 0 {
			target = q
		}
	}
	if target < 0 {
		// Every graph query saw bids in this run; fall back to any query.
		target = 0
	}
	fmt.Printf("incoming query: %q (has direct bids: %v)\n",
		g.Query(target), res.BidTerms[g.Query(target)])
	cands, err := pipe.Rewrite(src, target)
	if err != nil {
		log.Fatal(err)
	}
	if len(cands) == 0 {
		fmt.Println("no rewrites survived filtering")
		return
	}
	fmt.Println("front-end rewrites (bid-filtered, stem-deduped):")
	for i, c := range cands {
		fmt.Printf("  %d. %-34s score %.4f\n", i+1, c.Text, c.Score)
	}

	// The back-end: collect the ads with bids on the rewrites — these
	// are now auctionable for the original query.
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
}
