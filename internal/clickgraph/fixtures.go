package clickgraph

import "fmt"

// This file builds the small graphs the paper's Tables 1-4 are computed
// on, so the table experiments and tests reference exactly the structures
// in Figures 3 and 4.

// Fig3 builds the unweighted sample click graph of Figure 3: five queries
// {pc, camera, digital camera, tv, flower} and seven ads. The figure itself
// is an image, so the wiring is reconstructed from the constraints the text
// states: the common-ad counts of Table 1, the complete bipartite subgraphs
// {camera, digital camera} × {hp.com, bestbuy.com} and
// {flower} × {teleflora.com, orchids.com} called out in §6, and the
// structural symmetry between "camera" and "digital camera" that Table 2
// exhibits. Every edge gets one click and a unit expected click rate,
// matching the paper's "an edge indicates the existence of at least one
// click".
func Fig3() *Graph {
	// Table 1 requires:
	//   pc–camera = 1, pc–digital camera = 1, pc–tv = 0, pc–flower = 0
	//   camera–digital camera = 2, camera–tv = 1, camera–flower = 0
	//   digital camera–tv = 1, digital camera–flower = 0, tv–flower = 0
	// The wiring below satisfies every count with 7 ads, and keeps
	// {camera, digital camera} × {hp.com, bestbuy.com} as the complete
	// bipartite subgraph the paper calls out in §6.
	edges := []struct{ q, a string }{
		{"pc", "pcworld.com"},
		{"pc", "hp.com"},
		{"camera", "hp.com"},
		{"camera", "bestbuy.com"},
		{"digital camera", "hp.com"},
		{"digital camera", "bestbuy.com"},
		{"camera", "fujifilm.com"},
		{"digital camera", "dpreview.com"},
		{"tv", "fujifilm.com"},
		{"tv", "dpreview.com"},
		{"flower", "teleflora.com"},
		{"flower", "orchids.com"},
	}
	b := NewBuilder()
	for _, e := range edges {
		if err := b.AddClick(e.q, e.a, 1); err != nil {
			panic(fmt.Sprintf("clickgraph: Fig3 fixture: %v", err))
		}
	}
	return b.Build()
}

// Fig4K22 builds the K2,2 complete bipartite graph of Figure 4(a):
// queries {camera, digital camera} fully connected to ads
// {hp.com, bestbuy.com}.
func Fig4K22() *Graph {
	b := NewBuilder()
	for _, q := range []string{"camera", "digital camera"} {
		for _, a := range []string{"hp.com", "bestbuy.com"} {
			if err := b.AddClick(q, a, 1); err != nil {
				panic(fmt.Sprintf("clickgraph: Fig4K22 fixture: %v", err))
			}
		}
	}
	return b.Build()
}

// Fig4K12 builds the K1,2 graph of Figure 4(b): ad hp.com connected to
// queries {pc, camera}. In the paper's orientation the two queries are the
// side whose pairwise similarity is studied, so here V1 = {hp.com} (one
// ad), V2 = {pc, camera}.
func Fig4K12() *Graph {
	b := NewBuilder()
	for _, q := range []string{"pc", "camera"} {
		if err := b.AddClick(q, "hp.com", 1); err != nil {
			panic(fmt.Sprintf("clickgraph: Fig4K12 fixture: %v", err))
		}
	}
	return b.Build()
}
