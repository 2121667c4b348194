package partition

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"simrankpp/internal/clickgraph"
)

// This file turns the ACL machinery into a shard planner: decompose the
// click graph into connected components, pack components that fit a node
// budget into exact shards, carve components above the budget with ACL
// sweep cuts, and report the cut edges that make a carved plan
// approximate. core.RunSharded executes a Plan with one engine per shard.

// Shard is one planned piece of the graph, identified by global node ids.
type Shard struct {
	// Queries and Ads are the shard's global ids, ascending.
	Queries, Ads []int
	// Exact reports that the shard is a union of whole connected
	// components: no edge leaves it, so a SimRank run restricted to it is
	// exact (bit-identical to the monolithic run on its pairs).
	Exact bool
	// CutEdges counts the parent-graph edges with exactly one endpoint in
	// this shard — the evidence a per-shard run cannot see. 0 for exact
	// shards.
	CutEdges int
	// Conductance is the sweep-cut conductance of the ACL cut that carved
	// this shard (0 for exact shards; for the remainder of a carved
	// component it is recomputed directly).
	Conductance float64
	// Fingerprint is the order-independent hash of the shard's subgraph —
	// its nodes (ids and names) and every incident edge with all three
	// weight channels (see fingerprint.go). Two plans assigning the same
	// shard index the same fingerprint observed the same subgraph, which
	// is what lets an incremental refresh skip the shard's recompute and
	// byte-copy its snapshot segment.
	Fingerprint uint64
}

// Nodes returns the shard's node count (queries + ads).
func (s *Shard) Nodes() int { return len(s.Queries) + len(s.Ads) }

// Plan is a full-coverage decomposition of one graph into disjoint shards.
type Plan struct {
	Shards []Shard
	// Exact reports that every shard is exact, i.e. the plan is a grouping
	// of whole components and a sharded run reproduces the monolithic run
	// bit for bit (at a fixed iteration count).
	Exact bool
	// TotalCutEdges counts each crossing edge once.
	TotalCutEdges int
	// NumQueries and NumAds record the planned graph's dimensions, so a
	// plan cannot silently be run against a different graph.
	NumQueries, NumAds int
}

// Fingerprint is the identity of the generation the plan describes: the
// XOR of every shard's subgraph fingerprint — the value a snapshot
// written from the plan advertises in its header and the generation
// journal records in its manifest.
func (p *Plan) Fingerprint() uint64 {
	var fp uint64
	for i := range p.Shards {
		fp ^= p.Shards[i].Fingerprint
	}
	return fp
}

// PlanConfig parameterizes BuildPlan.
type PlanConfig struct {
	// MaxShardNodes is the node budget: components at most this large are
	// packed whole into shards; larger components are carved with ACL
	// sweep cuts whose prefixes are bounded by the budget. Only a carved
	// component's remainder can exceed it, when no seed yields a usable
	// cut.
	MaxShardNodes int
	// MinCutNodes is the minimum sweep-cut prefix when carving (keeps
	// carved pieces big enough to amortize a shard engine).
	MinCutNodes int
	// PPR parameterizes the ACL push.
	PPR PPRConfig
}

// DefaultPlanConfig returns a 4096-node budget with the default ACL push.
func DefaultPlanConfig() PlanConfig {
	return PlanConfig{MaxShardNodes: 4096, MinCutNodes: 64, PPR: DefaultPPRConfig()}
}

// Validate reports whether the configuration is usable.
func (c PlanConfig) Validate() error {
	if c.MaxShardNodes < 1 {
		return fmt.Errorf("partition: MaxShardNodes must be >= 1, got %d", c.MaxShardNodes)
	}
	if c.MinCutNodes < 1 {
		return fmt.Errorf("partition: MinCutNodes must be >= 1, got %d", c.MinCutNodes)
	}
	return c.PPR.Validate()
}

// ComponentPlan returns the exact plan with one shard per connected
// component — the reference decomposition the differential tests pin
// against the monolithic engines, and the natural plan when no component
// outgrows one machine.
func ComponentPlan(g *clickgraph.Graph) *Plan {
	comps := clickgraph.Components(g)
	p := &Plan{
		Shards:     make([]Shard, len(comps)),
		Exact:      true,
		NumQueries: g.NumQueries(),
		NumAds:     g.NumAds(),
	}
	for i, c := range comps {
		p.Shards[i] = Shard{Queries: c.Queries, Ads: c.Ads, Exact: true}
	}
	p.annotate(g)
	return p
}

// WholePlan returns the one-shard plan over all of g under identity ids: a
// monolithic run as a plan. Its fingerprint is GraphFingerprint(g).
func WholePlan(g *clickgraph.Graph) *Plan {
	identity := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	p := &Plan{
		Shards:     []Shard{{Queries: identity(g.NumQueries()), Ads: identity(g.NumAds())}},
		NumQueries: g.NumQueries(),
		NumAds:     g.NumAds(),
	}
	p.Reannotate(g)
	return p
}

// BuildPlan decomposes g under the budget: connected components at most
// MaxShardNodes nodes are greedily packed (largest first, first fit) into
// exact shards; a component above the budget is carved by repeated ACL
// clustering — seed at the highest-degree unassigned query, sweep for the
// lowest-conductance cut, peel, repeat until the remainder fits. Carved
// shards are approximate: their cut edges are counted and reported, and
// the plan as a whole is Exact only if no component needed carving.
func BuildPlan(g *clickgraph.Graph, cfg PlanConfig) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Exact: true, NumQueries: g.NumQueries(), NumAds: g.NumAds()}
	var packable, oversized []clickgraph.Component // within budget, above it
	for _, c := range clickgraph.Components(g) {
		if len(c.Queries)+len(c.Ads) <= cfg.MaxShardNodes {
			packable = append(packable, c)
		} else {
			oversized = append(oversized, c)
		}
	}
	// A carve reads the graph and its own component only, so the oversized
	// components are carved side by side, at most GOMAXPROCS at a time, and
	// their shards appended in component order: the plan does not depend on
	// the width. Each slot holds the push scratch its carves reuse.
	carved := make([][]Shard, len(oversized))
	slots := make(chan *pprScratch, runtime.GOMAXPROCS(0))
	for range cap(slots) {
		slots <- new(pprScratch)
	}
	var wg sync.WaitGroup
	for i, c := range oversized {
		ws := <-slots
		wg.Add(1)
		go func() {
			defer wg.Done()
			carved[i] = carveComponent(g, c, cfg, ws)
			slots <- ws
		}()
	}
	wg.Wait()
	for _, shards := range carved {
		if len(shards) > 1 {
			p.Exact = false // a cut was made
		}
		p.Shards = append(p.Shards, shards...)
	}
	p.Shards = append(p.Shards, packComponents(packable, cfg.MaxShardNodes)...)
	p.annotate(g)
	return p, nil
}

// packComponents bins whole components into exact shards: components
// arrive largest-first (Components' order) and each goes into the first
// shard with room. Ids are appended as components land and each shard is
// sorted once at the end, so packing moves every id O(1) times plus one
// sort — not once per absorbed component. The first-fit scan starts past
// the shards that are completely full (they can never admit another
// component), which keeps the dominant many-tiny-components case — shards
// filling to the budget one after another — near-linear.
func packComponents(comps []clickgraph.Component, budget int) []Shard {
	var shards []Shard
	nodes := func(i int) int { return len(shards[i].Queries) + len(shards[i].Ads) }
	first := 0 // shards before this have no room for even a singleton
	for _, c := range comps {
		n := len(c.Queries) + len(c.Ads)
		for first < len(shards) && nodes(first) >= budget {
			first++
		}
		placed := -1
		for i := first; i < len(shards); i++ {
			if nodes(i)+n <= budget {
				placed = i
				break
			}
		}
		if placed < 0 {
			shards = append(shards, Shard{Exact: true})
			placed = len(shards) - 1
		}
		shards[placed].Queries = append(shards[placed].Queries, c.Queries...)
		shards[placed].Ads = append(shards[placed].Ads, c.Ads...)
	}
	for i := range shards {
		sort.Ints(shards[i].Queries)
		sort.Ints(shards[i].Ads)
	}
	return shards
}

// carveComponent peels ACL clusters off one oversized component until the
// remainder fits the budget. Clusters are restricted to still-unassigned
// component nodes so pieces stay disjoint. A single shard, marked exact,
// comes back when no cut was ever made — possible when no seed yields a
// usable cluster, leaving the whole component as one shard. Every push
// runs on ws, which the carve leaves zero.
func carveComponent(g *clickgraph.Graph, c clickgraph.Component, cfg PlanConfig, ws *pprScratch) (shards []Shard) {
	unassigned := make(map[NodeID]bool, len(c.Queries)+len(c.Ads))
	for _, q := range c.Queries {
		unassigned[QueryNode(q)] = true
	}
	for _, a := range c.Ads {
		unassigned[AdNode(g, a)] = true
	}
	for len(unassigned) > cfg.MaxShardNodes {
		seed, ok := bestUnassignedSeed(g, c, unassigned)
		if !ok {
			break
		}
		// The push runs on the whole graph but mass cannot leave the
		// component; restricting the sweep to unassigned nodes keeps the
		// peeled pieces disjoint.
		ppr, err := ws.push(g, seed, cfg.PPR)
		if err != nil {
			break // cfg was validated; only an impossible seed gets here
		}
		for u := range ppr {
			if !unassigned[u] {
				delete(ppr, u)
			}
		}
		// Bounding the sweep by the budget keeps carved pieces within it
		// and, because the loop runs only while len(unassigned) exceeds the
		// budget, guarantees the cut is a strict subset — without the bound
		// the full-support prefix (conductance 0: it cuts nothing) would
		// win whenever the push reaches the whole component.
		cluster, phi := SweepCutBounded(g, ppr, cfg.MinCutNodes, cfg.MaxShardNodes)
		cluster[seed] = true
		if len(cluster) >= len(unassigned) {
			break // the "cut" would take everything: no usable split
		}
		shards = append(shards, shardFromSet(g, cluster, false, phi))
		for u := range cluster {
			delete(unassigned, u)
		}
	}
	rest := shardFromSet(g, unassigned, len(shards) == 0, 0)
	if len(shards) > 0 {
		rest.Conductance = Conductance(g, unassigned)
	}
	return append(shards, rest)
}

// bestUnassignedSeed picks the highest-degree unassigned query of the
// component, smaller id on ties.
func bestUnassignedSeed(g *clickgraph.Graph, c clickgraph.Component, unassigned map[NodeID]bool) (NodeID, bool) {
	best, bestDeg := NodeID(-1), 0
	for _, q := range c.Queries {
		u := QueryNode(q)
		if !unassigned[u] {
			continue
		}
		if d := g.QueryDegree(q); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best, best >= 0
}

// shardFromSet materializes a shard from a unified-space node set.
func shardFromSet(g *clickgraph.Graph, set map[NodeID]bool, exact bool, phi float64) Shard {
	s := Shard{Exact: exact, Conductance: phi}
	for u := range set {
		side, id := Split(g, u)
		if side == clickgraph.QuerySide {
			s.Queries = append(s.Queries, id)
		} else {
			s.Ads = append(s.Ads, id)
		}
	}
	sort.Ints(s.Queries)
	sort.Ints(s.Ads)
	return s
}

// Validate reports whether the plan covers g exactly: every query and ad
// id appears in exactly one shard, each shard's ids ascend, and the
// recorded dimensions match. The snapshot writer relies on the order: it
// walks a shard's ids to emit its segment rows ascending.
func (p *Plan) Validate(g *clickgraph.Graph) error {
	if p.NumQueries != g.NumQueries() || p.NumAds != g.NumAds() {
		return fmt.Errorf("partition: plan built for %d×%d graph, got %d×%d",
			p.NumQueries, p.NumAds, g.NumQueries(), g.NumAds())
	}
	if err := coverage(p.Shards, g.NumQueries(), func(s *Shard) []int { return s.Queries }, "query"); err != nil {
		return err
	}
	return coverage(p.Shards, g.NumAds(), func(s *Shard) []int { return s.Ads }, "ad")
}

func coverage(shards []Shard, n int, ids func(*Shard) []int, side string) error {
	seen := make([]bool, n)
	total := 0
	for si := range shards {
		list := ids(&shards[si])
		for k, id := range list {
			if id < 0 || id >= n {
				return fmt.Errorf("partition: shard %d: %s id %d outside [0,%d)", si, side, id, n)
			}
			if k > 0 && list[k-1] >= id {
				return fmt.Errorf("partition: shard %d: %s ids not ascending (%d after %d)", si, side, id, list[k-1])
			}
			if seen[id] {
				return fmt.Errorf("partition: %s id %d assigned to more than one shard", side, id)
			}
			seen[id] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("partition: plan covers %d of %d %s ids", total, n, side)
	}
	return nil
}

// WriteSummary prints the plan as a human-readable table: per-shard sizes,
// cut edges and conductance, plus plan-level totals — the inspection
// surface cmd/partition exposes before anything is run.
func (p *Plan) WriteSummary(w io.Writer) error {
	kind := func(s *Shard) string {
		if s.Exact {
			return "exact"
		}
		return "cut"
	}
	if _, err := fmt.Fprintf(w, "%-10s  %8s  %8s  %8s  %9s  %11s  %-5s\n",
		"shard", "queries", "ads", "nodes", "cut-edges", "conductance", "kind"); err != nil {
		return err
	}
	for i := range p.Shards {
		s := &p.Shards[i]
		if _, err := fmt.Fprintf(w, "%-10d  %8d  %8d  %8d  %9d  %11.4f  %-5s\n",
			i, len(s.Queries), len(s.Ads), s.Nodes(), s.CutEdges, s.Conductance, kind(s)); err != nil {
			return err
		}
	}
	exactness := "exact (component-grouping: sharded run is bit-identical to monolithic)"
	if !p.Exact {
		exactness = "approximate (ACL cuts drop cross-shard evidence)"
	}
	_, err := fmt.Fprintf(w, "total: %d shards, %d queries, %d ads, %d cut edges — %s\n",
		len(p.Shards), p.NumQueries, p.NumAds, p.TotalCutEdges, exactness)
	return err
}
