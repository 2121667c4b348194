package partition

import (
	"math"

	"simrankpp/internal/clickgraph"
)

// This file gives every shard an order-independent subgraph fingerprint —
// the change-detection layer of the incremental refresh story. A shard's
// fingerprint is the XOR of a hash per node (side, id, name) and a hash
// per *incident* edge (endpoint ids plus all three weight channels), so it
// is insensitive to enumeration order but flips when anything the shard's
// SimRank run can observe moves: an edge appears or disappears, a weight
// changes, a node joins, leaves, or is re-interned under a different id.
// Including ids (not just names) is deliberate: a clean fingerprint match
// then guarantees the shard's snapshot segment — which stores global ids —
// is byte-for-byte reusable. Cut edges are incident to both shards they
// straddle, so a new crossing edge dirties both sides even though it is in
// neither shard's induced subgraph.

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche so that
// XOR-accumulated element hashes do not cancel structure.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fnv64a hashes a string (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

const (
	fpQueryTag = 0x51756572 // "Quer"
	fpAdTag    = 0x41647674 // "Advt"
	fpEdgeTag  = 0x45646765 // "Edge"
)

func queryNodeHash(id int, name string) uint64 {
	return mix64(fnv64a(name) ^ mix64(uint64(id)<<32|fpQueryTag))
}

func adNodeHash(id int, name string) uint64 {
	return mix64(fnv64a(name) ^ mix64(uint64(id)<<32|fpAdTag))
}

func edgeHash(q, a int, w clickgraph.EdgeWeights) uint64 {
	h := mix64(uint64(q)<<32 | uint64(uint32(a)))
	h = mix64(h ^ uint64(w.Impressions) ^ fpEdgeTag)
	h = mix64(h ^ uint64(w.Clicks))
	h = mix64(h ^ math.Float64bits(w.ExpectedClickRate))
	return h
}

// GraphFingerprint returns the whole graph's fingerprint: the value
// WholePlan's one shard carries. The ingest fold state records it to
// check the graph it saved.
func GraphFingerprint(g *clickgraph.Graph) uint64 {
	var fp uint64
	for q := 0; q < g.NumQueries(); q++ {
		fp ^= queryNodeHash(q, g.Query(q))
	}
	for a := 0; a < g.NumAds(); a++ {
		fp ^= adNodeHash(a, g.Ad(a))
	}
	g.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
		fp ^= edgeHash(q, a, w)
		return true
	})
	return fp
}

// Reannotate re-derives every edge-dependent field of the plan — cut
// edges, fingerprints, and the exactness flags (a shard is exact iff no
// edge crosses it, i.e. it is a union of whole components) — from g.
// Callers applying a plan to a graph other than the one it was built on
// (a projected refresh plan, a worker's one-shard plan) must use it so the
// recorded fingerprints always describe the graph the engines run on.
func (p *Plan) Reannotate(g *clickgraph.Graph) {
	p.annotate(g)
	p.Exact = true
	for si := range p.Shards {
		p.Shards[si].Exact = p.Shards[si].CutEdges == 0
		if !p.Shards[si].Exact {
			p.Exact = false
		}
	}
}

// shardIndex builds per-side node→shard lookup arrays (-1 = unassigned).
func (p *Plan) shardIndex() (qShard, aShard []int32) {
	qShard = make([]int32, p.NumQueries)
	aShard = make([]int32, p.NumAds)
	for i := range qShard {
		qShard[i] = -1
	}
	for i := range aShard {
		aShard[i] = -1
	}
	for si := range p.Shards {
		for _, q := range p.Shards[si].Queries {
			qShard[q] = int32(si)
		}
		for _, a := range p.Shards[si].Ads {
			aShard[a] = int32(si)
		}
	}
	return qShard, aShard
}

// annotate derives the plan's per-shard edge bookkeeping from g in one
// scan: cut-edge counts (each crossing edge counted once per incident
// shard and once in the plan total) and subgraph fingerprints (node hashes
// plus incident-edge hashes; an internal edge folds in once, a crossing
// edge into both shards). BuildPlan, ComponentPlan and DiffPlans all call
// it, so every plan a caller can obtain carries fingerprints.
func (p *Plan) annotate(g *clickgraph.Graph) {
	qShard, aShard := p.shardIndex()
	for si := range p.Shards {
		s := &p.Shards[si]
		s.CutEdges = 0
		fp := uint64(0)
		for _, q := range s.Queries {
			fp ^= queryNodeHash(q, g.Query(q))
		}
		for _, a := range s.Ads {
			fp ^= adNodeHash(a, g.Ad(a))
		}
		s.Fingerprint = fp
	}
	p.TotalCutEdges = 0
	g.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
		sq, sa := qShard[q], aShard[a]
		h := edgeHash(q, a, w)
		if sq == sa {
			if sq >= 0 {
				p.Shards[sq].Fingerprint ^= h
			}
			return true
		}
		p.TotalCutEdges++
		if sq >= 0 {
			p.Shards[sq].CutEdges++
			p.Shards[sq].Fingerprint ^= h
		}
		if sa >= 0 {
			p.Shards[sa].CutEdges++
			p.Shards[sa].Fingerprint ^= h
		}
		return true
	})
}
