package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/ingest"
)

// Scale sizes the generated click graph. The full scale is the ISSUE's
// ≥10^5-node graph: many medium clusters that each fill one shard plus a
// few dense "giant" components the ACL planner has to carve.
type Scale struct {
	Name                              string
	Clusters                          int
	ClusterQ, ClusterA, ClusterEdges  int
	Giants                            int
	GiantQ, GiantA, GiantEdges        int
	MaxShardNodes, MinCutNodes        int
	HotClusters                       int // clusters the click stream concentrates on
	ExactChecks, FreshChecks, Samples int // correctness sample sizes
}

func fullScale() Scale {
	return Scale{Name: "full", Clusters: 840, ClusterQ: 65, ClusterA: 45, ClusterEdges: 500,
		Giants: 8, GiantQ: 650, GiantA: 450, GiantEdges: 5500,
		MaxShardNodes: 400, MinCutNodes: 100, HotClusters: 8,
		ExactChecks: 8, FreshChecks: 64, Samples: 256}
}

// smokeScale is the ≈2k-node graph the go test leg runs.
func smokeScale() Scale {
	return Scale{Name: "smoke", Clusters: 8, ClusterQ: 60, ClusterA: 40, ClusterEdges: 400,
		Giants: 1, GiantQ: 650, GiantA: 450, GiantEdges: 5500,
		MaxShardNodes: 400, MinCutNodes: 100, HotClusters: 2,
		ExactChecks: 2, FreshChecks: 16, Samples: 64}
}

// bidStride picks every Nth query as a bid term: sparse bids are the
// production shape (most candidate rewrites are not bid on), and they are
// what makes the live pipeline walk deep into the ranking.
const bidStride = 16

// Node names are shopping-query-like phrases, as in serve/servebench.go:
// /rewrite's pipeline cost is dominated by Porter-stemming candidate
// text, which six-character labels would understate by an order of
// magnitude. The trailing cluster-unique token keeps names distinct.
var vocab = [3][]string{
	{"discounted", "refurbished", "wireless", "professional", "portable", "vintage", "waterproof", "ergonomic",
		"compact", "digital", "organic", "handmade", "industrial", "luxury", "budget", "certified"},
	{"cameras", "batteries", "running shoes", "coffee makers", "headphones", "mattresses", "sunglasses", "printers",
		"guitars", "watches", "backpacks", "blenders", "keyboards", "telescopes", "luggage", "speakers"},
	{"accessories", "comparison", "reviews", "warranty", "shipping", "clearance", "bundles", "replacement",
		"installation", "financing", "ratings", "deals", "repairs", "manuals", "coupons", "pricing"},
}

func phrase(prefix string, kind byte, i int) string {
	h := uint64(i)*2654435761 + uint64(kind)*97
	for _, c := range []byte(prefix) {
		h = h*131 + uint64(c)
	}
	return fmt.Sprintf("%s %s %s %s%c%d",
		vocab[0][h%16], vocab[1][(h/31)%16], vocab[2][(h/997)%16], prefix, kind, i)
}

// cluster is one vertex-disjoint component of the generated graph.
type cluster struct {
	prefix string
	nq, na int
}

func (c cluster) query(i int) string { return phrase(c.prefix, 'q', i) }
func (c cluster) ad(i int) string    { return phrase(c.prefix, 'a', i) }

// Dataset is everything the servers are fed: the click log the snapshot
// is built from and the cluster layout the key and click streams draw on.
// The same (seed, scale) always yields the same Dataset.
type Dataset struct {
	Seed     uint64
	Scale    Scale
	Log      []ingest.Record
	clusters []cluster // medium clusters first, then giants
}

func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

func randomRecord(r *rand.Rand, c cluster, q string) ingest.Record {
	clicks := int64(r.IntN(20) + 1)
	return ingest.Record{Query: q, Ad: c.ad(r.IntN(c.na)),
		Impressions: clicks * 3, Clicks: clicks, Rate: float64(r.IntN(100)) / 100}
}

// Generate builds the seeded click log.
func Generate(seed uint64, sc Scale) *Dataset {
	ds := &Dataset{Seed: seed, Scale: sc}
	for c := 0; c < sc.Clusters; c++ {
		ds.clusters = append(ds.clusters, cluster{fmt.Sprintf("c%d-", c), sc.ClusterQ, sc.ClusterA})
	}
	for g := 0; g < sc.Giants; g++ {
		ds.clusters = append(ds.clusters, cluster{fmt.Sprintf("g%d-", g), sc.GiantQ, sc.GiantA})
	}
	ds.Log = make([]ingest.Record, 0, sc.Clusters*sc.ClusterEdges+sc.Giants*sc.GiantEdges)
	for i, c := range ds.clusters {
		r := rng(seed, uint64(i)+1)
		edges := sc.ClusterEdges
		if i >= sc.Clusters {
			edges = sc.GiantEdges
		}
		for e := 0; e < edges; e++ {
			ds.Log = append(ds.Log, randomRecord(r, c, c.query(r.IntN(c.nq))))
		}
	}
	return ds
}

// BuildGraph folds a click log into a graph the way every consumer of
// one does: Builder.AddEdge per record, then Build.
func BuildGraph(log []ingest.Record) (*clickgraph.Graph, error) {
	b := clickgraph.NewBuilder()
	for _, rec := range log {
		if err := b.AddEdge(rec.Query, rec.Ad, rec.Weights()); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Bids returns the bid-term set: every bidStride-th query of g.
func Bids(g *clickgraph.Graph) map[string]bool {
	bids := make(map[string]bool, g.NumQueries()/bidStride+1)
	for i := 0; i < g.NumQueries(); i += bidStride {
		bids[g.Query(i)] = true
	}
	return bids
}

// zipf samples ranks in [0, n) with P(rank) ∝ 1/(rank+1) — s = 1.0, which
// math/rand's Zipf (s > 1 only) cannot express.
type zipf struct{ cum []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cum: make([]float64, n)}
	sum := 0.0
	for i := range z.cum {
		sum += 1 / float64(i+1)
		z.cum[i] = sum
	}
	return z
}

func (z *zipf) sample(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cum, r.Float64()*z.cum[len(z.cum)-1])
}

// HotKeys returns n query names drawn Zipf(1.0) over a seeded permutation
// of names — the production read shape. stream separates the per-client
// and per-workload sequences of one seed.
func HotKeys(seed, stream uint64, names []string, n int) []string {
	r := rng(seed, 1<<32+stream)
	perm := rng(seed, 1<<33).Perm(len(names)) // one popularity order per seed
	z := newZipf(len(names))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = names[perm[z.sample(r)]]
	}
	return keys
}

// UniformKeys returns n names drawn uniformly: a working set of the
// whole graph, far larger than the servers' LRU.
func UniformKeys(seed, stream uint64, names []string, n int) []string {
	r := rng(seed, 1<<34+stream)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = names[r.IntN(len(names))]
	}
	return keys
}

// ClickStream returns n batches of batchSize click records: 98 % land in
// the first HotClusters clusters, 2 % uniformly in the rest, and about 1 %
// name a query the graph has never seen on an existing hot-cluster ad (a
// new node that must join its neighbour's shard).
func (ds *Dataset) ClickStream(n, batchSize int) [][]ingest.Record {
	r := rng(ds.Seed, 1<<35)
	hot := ds.Scale.HotClusters
	batches := make([][]ingest.Record, n)
	fresh := 0
	for b := range batches {
		batch := make([]ingest.Record, batchSize)
		for i := range batch {
			ci := r.IntN(hot)
			if r.IntN(100) < 2 {
				ci = hot + r.IntN(ds.Scale.Clusters-hot)
			}
			c := ds.clusters[ci]
			q := c.query(r.IntN(c.nq))
			if ci < hot && r.IntN(100) == 0 {
				q = phrase(c.prefix, 'n', fresh)
				fresh++
			}
			batch[i] = randomRecord(r, c, q)
		}
		batches[b] = batch
	}
	return batches
}

// HotClusterQueries returns up to n query names from the hot clusters
// that g contains, for the post-ingest freshness check.
func (ds *Dataset) HotClusterQueries(g *clickgraph.Graph, n int) []string {
	r := rng(ds.Seed, 1<<36)
	var out []string
	for tries := 0; len(out) < n && tries < 20*n; tries++ {
		c := ds.clusters[r.IntN(ds.Scale.HotClusters)]
		if q := c.query(r.IntN(c.nq)); func() bool { _, ok := g.QueryID(q); return ok }() {
			out = append(out, q)
		}
	}
	return out
}
