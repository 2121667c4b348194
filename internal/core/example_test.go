package core_test

import (
	"cmp"
	"fmt"
	"log"
	"slices"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
)

// cameraGraph is a small click graph: an edge records that an ad was
// clicked for a query, with impressions, clicks, and the
// position-adjusted expected click rate.
func cameraGraph() *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for _, e := range []struct {
		query, ad    string
		impr, clicks int64
		rate         float64
	}{
		{"camera", "hp.com", 100, 20, 0.20},
		{"camera", "bestbuy.com", 150, 30, 0.21},
		{"digital camera", "hp.com", 80, 18, 0.22},
		{"digital camera", "bestbuy.com", 90, 17, 0.19},
		{"digital camera", "dpreview.com", 40, 6, 0.15},
		{"pc", "hp.com", 120, 12, 0.10},
		{"tv", "bestbuy.com", 70, 9, 0.13},
		{"tv", "dpreview.com", 30, 4, 0.13},
		{"flower", "teleflora.com", 60, 21, 0.35},
		{"flower", "orchids.com", 50, 18, 0.36},
	} {
		if err := b.AddEdge(e.query, e.ad, clickgraph.EdgeWeights{
			Impressions: e.impr, Clicks: e.clicks, ExpectedClickRate: e.rate,
		}); err != nil {
			log.Fatal(err)
		}
	}
	return b.Build()
}

// Run computes all three Simrank++ variants (§4, §7, §8) over the whole
// graph; DefaultConfig is the paper's setting, C1 = C2 = 0.8 and 7
// iterations.
func ExampleRun() {
	g := cameraGraph()
	camera, _ := g.QueryID("camera")
	for _, variant := range []core.Variant{core.Simple, core.Evidence, core.Weighted} {
		res, err := core.Run(g, core.DefaultConfig().WithVariant(variant))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — rewrites for %q:\n", variant, "camera")
		for i, s := range res.TopRewrites(camera, 3) {
			fmt.Printf("  %d. %-18s %.4f\n", i+1, g.Query(s.Node), s.Score)
		}
		fmt.Println()
	}
	// Output:
	// simrank — rewrites for "camera":
	//   1. pc                 0.5912
	//   2. digital camera     0.5238
	//   3. tv                 0.4901
	//
	// evidence-based simrank — rewrites for "camera":
	//   1. digital camera     0.3928
	//   2. pc                 0.2956
	//   3. tv                 0.2450
	//
	// weighted simrank — rewrites for "camera":
	//   1. digital camera     0.3201
	//   2. pc                 0.2540
	//   3. tv                 0.1772
}

// LocalSimilarities is the online path: it scores one query against its
// neighbourhood without an all-pairs run.
func ExampleLocalSimilarities() {
	g := cameraGraph()
	camera, _ := g.QueryID("camera")
	local, err := core.LocalSimilarities(g, camera, core.DefaultConfig().WithVariant(core.Weighted), core.DefaultLocalConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("online (neighborhood) weighted rewrites for \"camera\":")
	for i, s := range local[:min(3, len(local))] {
		fmt.Printf("  %d. %-18s %.4f\n", i+1, g.Query(s.Node), s.Score)
	}
	// Output:
	// online (neighborhood) weighted rewrites for "camera":
	//   1. digital camera     0.3201
	//   2. pc                 0.2540
	//   3. tv                 0.1772
}

// The Simrank++ measures outside sponsored search: the transfer §11
// anticipates ("we suspect that the weighted and evidence-based Simrank
// methods could be of use in other applications that exploit bi-partite
// graphs ... including collaborative filtering"). The bipartite graph is
// users × movies with ratings as weights: users play the queries, and
// user-user similarity finds taste neighbours whose ratings predict
// recommendations.
func Example_collaborativeFiltering() {
	b := clickgraph.NewBuilder()
	for _, r := range []struct {
		user, movie string
		stars       int
	}{
		{"ana", "heat", 5}, {"ana", "ronin", 4}, {"ana", "drive", 5},
		{"bob", "heat", 4}, {"bob", "ronin", 5}, {"bob", "drive", 4},
		{"carol", "amelie", 5}, {"carol", "brazil", 4}, {"carol", "drive", 2},
		{"dave", "amelie", 4}, {"dave", "brazil", 5},
		{"erin", "heat", 2}, {"erin", "amelie", 5}, {"erin", "brazil", 3},
		{"frank", "ronin", 5}, {"frank", "heat", 5},
	} {
		// A rating is the click count; the 1-5 scale maps to an
		// expected-click-rate-style weight in (0, 1].
		if err := b.AddEdge(r.user, r.movie, clickgraph.EdgeWeights{
			Impressions:       5,
			Clicks:            int64(r.stars),
			ExpectedClickRate: float64(r.stars) / 5,
		}); err != nil {
			log.Fatal(err)
		}
	}
	g := b.Build()
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.Iterations = 10
	res, err := core.Run(g, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("taste neighbors (weighted Simrank++ on the ratings graph):")
	for _, user := range []string{"ana", "carol"} {
		uid, _ := g.QueryID(user)
		fmt.Printf("  %s:", user)
		for _, s := range res.TopRewrites(uid, 2) {
			fmt.Printf("  %s (%.3f)", g.Query(s.Node), s.Score)
		}
		fmt.Println()
	}

	// Movie-movie similarity comes from the ad side of the same run.
	fmt.Println("\nsimilar movies (ad-side scores):")
	for _, movie := range []string{"heat", "amelie"} {
		mid, _ := g.AdID(movie)
		fmt.Printf("  %s:", movie)
		for _, s := range res.TopSimilarAds(mid, 2) {
			fmt.Printf("  %s (%.3f)", g.Ad(s.Node), s.Score)
		}
		fmt.Println()
	}

	// Recommend the movies the nearest taste neighbour rated that the
	// user has not, the neighbour's heaviest first.
	fid, _ := g.QueryID("frank")
	neighbor := res.TopRewrites(fid, 1)[0].Node
	rated, _ := g.AdsOf(fid)
	type rec struct {
		movie  string
		weight float64
	}
	var recs []rec
	ads, weights := g.AdsOf(neighbor)
	for i, a := range ads {
		if !slices.Contains(rated, a) {
			recs = append(recs, rec{g.Ad(a), weights[i]})
		}
	}
	slices.SortFunc(recs, func(x, y rec) int {
		return cmp.Or(cmp.Compare(y.weight, x.weight), cmp.Compare(x.movie, y.movie))
	})
	fmt.Printf("\nrecommendations for frank (via %s):\n", g.Query(neighbor))
	for _, r := range recs {
		fmt.Printf("  %-8s (neighbor's weight %.2f)\n", r.movie, r.weight)
	}
	// Output:
	// taste neighbors (weighted Simrank++ on the ratings graph):
	//   ana:  bob (0.331)  frank (0.287)
	//   carol:  dave (0.320)  erin (0.271)
	//
	// similar movies (ad-side scores):
	//   heat:  ronin (0.329)  drive (0.236)
	//   amelie:  brazil (0.341)  drive (0.048)
	//
	// recommendations for frank (via bob):
	//   drive    (neighbor's weight 0.80)
}
