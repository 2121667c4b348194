// Package partition implements the local graph-partitioning algorithm of
// Andersen, Chung and Lang (FOCS 2006) that the Simrank++ paper uses to
// decompose its giant click-graph component into five manageable subgraphs
// (§9.2, Table 5): approximate personalized PageRank computed by the push
// method, followed by a sweep cut that picks the prefix of smallest
// conductance.
//
// The click graph is treated as an undirected graph over a unified node
// space: query q is node q, ad a is node NumQueries + a.
package partition

import (
	"fmt"
	"sort"

	"simrankpp/internal/clickgraph"
)

// NodeID addresses a node in the unified space.
type NodeID int

// QueryNode returns the unified id of query q.
func QueryNode(q int) NodeID { return NodeID(q) }

// AdNode returns the unified id of ad a on graph g.
func AdNode(g *clickgraph.Graph, a int) NodeID { return NodeID(g.NumQueries() + a) }

// Split separates a unified id back into (side, per-side id).
func Split(g *clickgraph.Graph, n NodeID) (clickgraph.Side, int) {
	if int(n) < g.NumQueries() {
		return clickgraph.QuerySide, int(n)
	}
	return clickgraph.AdSide, int(n) - g.NumQueries()
}

// degree returns the unified-space degree of node n.
func degree(g *clickgraph.Graph, n NodeID) int {
	side, id := Split(g, n)
	if side == clickgraph.QuerySide {
		return g.QueryDegree(id)
	}
	return g.AdDegree(id)
}

// neighbors returns node n's row of the graph — the per-side ids of its
// neighbors, shared with g — and base, which added to one of them gives
// its unified id: every neighbor of a query is an ad, and the reverse.
func neighbors(g *clickgraph.Graph, n NodeID) (ids []int, base NodeID) {
	side, id := Split(g, n)
	if side == clickgraph.QuerySide {
		ids, _ = g.AdsOf(id)
		return ids, NodeID(g.NumQueries())
	}
	ids, _ = g.QueriesOf(id)
	return ids, 0
}

// PPRConfig parameterizes the approximate personalized PageRank push.
type PPRConfig struct {
	// Alpha is the teleport probability. ACL's analysis uses values
	// around 0.1-0.2.
	Alpha float64
	// Epsilon is the per-degree residual threshold: pushing stops when
	// every node u has residual r(u) < Epsilon·deg(u). Smaller epsilon
	// means a more accurate (and larger) support.
	Epsilon float64
}

// DefaultPPRConfig returns alpha 0.15 and epsilon 1e-6.
func DefaultPPRConfig() PPRConfig { return PPRConfig{Alpha: 0.15, Epsilon: 1e-6} }

// Validate reports whether the configuration is usable.
func (c PPRConfig) Validate() error {
	if !(c.Alpha > 0 && c.Alpha < 1) {
		return fmt.Errorf("partition: Alpha must be in (0,1), got %v", c.Alpha)
	}
	if !(c.Epsilon > 0) {
		return fmt.Errorf("partition: Epsilon must be > 0, got %v", c.Epsilon)
	}
	return nil
}

// ApproximatePageRank runs the ACL push algorithm from the given seed and
// returns the sparse approximate PPR vector. Isolated seeds yield a vector
// supported only on the seed.
//
// The residual, the settled mass and the queue flags are dense arrays
// over the unified node space, and the nodes that ever settle mass are
// listed in the order they first do, so the push reads and writes arrays
// where it would probe maps; the result map is built once, at the end.
// The push order is the FIFO order of the map formulation, so every value
// is the same bit for bit.
func ApproximatePageRank(g *clickgraph.Graph, seed NodeID, cfg PPRConfig) (map[NodeID]float64, error) {
	return new(pprScratch).push(g, seed, cfg)
}

// pprScratch is one push's dense state over a unified node space, zero
// between pushes, so pushes over one graph run one after another on one
// scratch: BuildPlan keeps one per carve slot.
type pprScratch struct {
	p, r             []float64
	inQueue, settled []bool
}

// push is ApproximatePageRank on ws's arrays, which it leaves zero.
func (ws *pprScratch) push(g *clickgraph.Graph, seed NodeID, cfg PPRConfig) (map[NodeID]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := NodeID(g.NumQueries() + g.NumAds())
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("partition: seed %d outside unified node space [0,%d)", seed, n)
	}
	if len(ws.p) < int(n) {
		ws.p, ws.r = make([]float64, n), make([]float64, n)
		ws.inQueue, ws.settled = make([]bool, n), make([]bool, n)
	}
	p, r, inQueue, settled := ws.p, ws.r, ws.inQueue, ws.settled
	var support []NodeID // nodes with settled mass, in first-settle order
	settle := func(u NodeID, mass float64) {
		if !settled[u] {
			settled[u] = true
			support = append(support, u)
		}
		p[u] += mass
	}
	r[seed] = 1
	queue := []NodeID{seed}
	inQueue[seed] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		du := degree(g, u)
		ru := r[u]
		if du == 0 {
			// Isolated node: all residual mass settles here.
			settle(u, ru)
			r[u] = 0
			continue
		}
		if ru < cfg.Epsilon*float64(du) {
			continue
		}
		// Push: move alpha fraction to p, spread half the rest.
		settle(u, float64(cfg.Alpha*ru))
		share := (1 - cfg.Alpha) * ru / (2 * float64(du))
		r[u] = (1 - cfg.Alpha) * ru / 2
		ids, base := neighbors(g, u)
		for _, id := range ids {
			v := base + NodeID(id)
			r[v] += share
			if !inQueue[v] && r[v] >= cfg.Epsilon*float64(degree(g, v)) {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
		if r[u] >= cfg.Epsilon*float64(du) && !inQueue[u] {
			inQueue[u] = true
			queue = append(queue, u)
		}
	}
	// The queue is empty, so every flag in inQueue is down. Every push
	// settles mass, so the residual reached only the seed and the
	// neighbours of the support: zeroing those leaves ws zero for the next.
	out := make(map[NodeID]float64, len(support))
	r[seed] = 0
	for _, u := range support {
		out[u] = p[u]
		p[u], r[u], settled[u] = 0, 0, false
		ids, base := neighbors(g, u)
		for _, id := range ids {
			r[base+NodeID(id)] = 0
		}
	}
	return out, nil
}

// Conductance returns Φ(S) = cut(S) / min(vol(S), vol(complement)) for the
// node set S, where vol sums degrees and cut counts edges with exactly one
// endpoint in S. It returns 1 for empty, full, or zero-volume sets (the
// convention that makes sweep cuts ignore them).
func Conductance(g *clickgraph.Graph, s map[NodeID]bool) float64 {
	vol, cut := 0, 0
	for u := range s {
		ids, base := neighbors(g, u)
		vol += len(ids)
		for _, id := range ids {
			if !s[base+NodeID(id)] {
				cut++
			}
		}
	}
	other := 2*g.NumEdges() - vol // every edge adds one to each end's degree
	m := vol
	if other < m {
		m = other
	}
	if m == 0 {
		return 1
	}
	return float64(cut) / float64(m)
}

// SweepCutMin orders the support of the PPR vector by p(u)/deg(u)
// descending and returns the prefix set with the smallest conductance
// among prefixes of at least minNodes nodes (clamped to the support
// size), along with that conductance. Zero-degree nodes are excluded from
// the sweep; the minimum keeps extracted subgraphs "big enough" the way
// the paper's iterative extraction required.
func SweepCutMin(g *clickgraph.Graph, p map[NodeID]float64, minNodes int) (map[NodeID]bool, float64) {
	return SweepCutBounded(g, p, minNodes, 0)
}

// SweepCutBounded is SweepCutMin additionally restricted to prefixes of
// at most maxNodes nodes (0 means unbounded). The shard planner uses the
// bound for two things: carved pieces respect the shard budget, and the
// sweep can never "choose" the entire support — when the support covers a
// whole component of a multi-component graph, the full prefix has
// conductance 0 (it cuts nothing) and would always win, which is a
// non-answer for a planner that needs a strict piece.
func SweepCutBounded(g *clickgraph.Graph, p map[NodeID]float64, minNodes, maxNodes int) (map[NodeID]bool, float64) {
	type ranked struct {
		node NodeID
		val  float64
	}
	order := make([]ranked, 0, len(p))
	for u, pv := range p {
		if d := degree(g, u); d > 0 {
			order = append(order, ranked{node: u, val: pv / float64(d)})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].val != order[j].val {
			return order[i].val > order[j].val
		}
		return order[i].node < order[j].node
	})
	if len(order) == 0 {
		return map[NodeID]bool{}, 1
	}
	if minNodes < 1 {
		minNodes = 1
	}
	if minNodes > len(order) {
		minNodes = len(order)
	}
	if maxNodes <= 0 || maxNodes > len(order) {
		maxNodes = len(order)
	}
	if maxNodes < minNodes {
		maxNodes = minNodes
	}

	totalVol := 2 * g.NumEdges() // every edge adds one to each end's degree

	// Incremental conductance over the sweep: adding node u adds deg(u) to
	// vol; each edge to a node already inside converts a cut edge into an
	// internal one (cut -= 1), each edge to an outside node adds one.
	in := make(map[NodeID]bool, len(order))
	vol, cut := 0, 0
	bestPhi := 1.0
	bestLen := 0
	for i, rk := range order[:maxNodes] {
		u := rk.node
		in[u] = true
		ids, base := neighbors(g, u)
		vol += len(ids)
		for _, id := range ids {
			if in[base+NodeID(id)] {
				cut--
			} else {
				cut++
			}
		}
		m := vol
		if other := totalVol - vol; other < m {
			m = other
		}
		if m <= 0 || i+1 < minNodes {
			continue
		}
		phi := float64(cut) / float64(m)
		if phi < bestPhi {
			bestPhi = phi
			bestLen = i + 1
		}
	}
	if bestLen == 0 {
		bestLen = minNodes
	}
	best := make(map[NodeID]bool, bestLen)
	for _, rk := range order[:bestLen] {
		best[rk.node] = true
	}
	return best, bestPhi
}

// Cluster runs ApproximatePageRank from seed and sweeps for the best cut
// of at least minNodes nodes.
func Cluster(g *clickgraph.Graph, seed NodeID, cfg PPRConfig, minNodes int) (map[NodeID]bool, float64, error) {
	p, err := ApproximatePageRank(g, seed, cfg)
	if err != nil {
		return nil, 0, err
	}
	s, phi := SweepCutMin(g, p, minNodes)
	return s, phi, nil
}

// Subgraph is one extracted piece with its seed and conductance.
type Subgraph struct {
	Graph       *clickgraph.Graph
	Seed        NodeID
	Conductance float64
}

// Extract peels count subgraphs from g the way the paper built its
// five-subgraph dataset: pick the highest-degree unassigned query as seed,
// run the ACL cluster around it, remove the cluster's nodes from the pool,
// repeat. Clusters are induced subgraphs of g; nodes never repeat across
// subgraphs. minNodes forces each sweep cut to keep at least that many
// nodes, so the pieces are big enough to evaluate on. If the graph runs
// out of unassigned queries early, fewer than count subgraphs are
// returned.
func Extract(g *clickgraph.Graph, count int, cfg PPRConfig, minNodes int) ([]Subgraph, error) {
	if count < 1 {
		return nil, fmt.Errorf("partition: count must be >= 1, got %d", count)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	assigned := make(map[NodeID]bool)
	var out []Subgraph
	for len(out) < count {
		seed, ok := bestSeed(g, assigned)
		if !ok {
			break
		}
		cluster, phi, err := Cluster(g, seed, cfg, minNodes)
		if err != nil {
			return nil, err
		}
		// Keep only unassigned members; always include the seed.
		var queryIDs, adIDs []int
		cluster[seed] = true
		for u := range cluster {
			if assigned[u] {
				continue
			}
			assigned[u] = true
			side, id := Split(g, u)
			if side == clickgraph.QuerySide {
				queryIDs = append(queryIDs, id)
			} else {
				adIDs = append(adIDs, id)
			}
		}
		sort.Ints(queryIDs)
		sort.Ints(adIDs)
		if len(queryIDs) == 0 {
			continue
		}
		out = append(out, Subgraph{
			Graph:       g.InducedSubgraph(queryIDs, adIDs),
			Seed:        seed,
			Conductance: phi,
		})
	}
	return out, nil
}

// bestSeed returns the unassigned query with the largest degree,
// preferring smaller ids on ties; ok is false when no unassigned query
// with nonzero degree remains.
func bestSeed(g *clickgraph.Graph, assigned map[NodeID]bool) (NodeID, bool) {
	best, bestDeg := NodeID(-1), 0
	for q := 0; q < g.NumQueries(); q++ {
		u := QueryNode(q)
		if assigned[u] {
			continue
		}
		if d := g.QueryDegree(q); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best, best >= 0
}
