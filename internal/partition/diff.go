package partition

import (
	"fmt"

	"simrankpp/internal/clickgraph"
)

// This file is the change-detection half of incremental refresh: given a
// previous generation's shard assignment (names → ids and shards, plus
// per-shard fingerprints — a serve.Snapshot carries all of it, as does an
// old graph + plan pair) and the *new* graph, DiffPlans projects the old
// decomposition onto the new graph and classifies every shard as clean
// (identical subgraph, identical ids: the previous scores and snapshot
// segment are reusable verbatim) or dirty (something it can observe
// moved: re-run it). The projection never runs
// BuildPlan — it is one name-lookup pass plus one edge scan, so the
// refresh path's planning cost is proportional to the graph scan, not to
// ACL clustering.

// PrevAssignment is the previous generation's node→shard record the diff
// maps a new graph against: shard count, per-shard subgraph fingerprints,
// and name-keyed lookups returning the node's previous id and shard.
// *serve.Snapshot implements it (names from the string table, shards from
// the route map, fingerprints from the directory); the tests' planAssignment
// adapts an in-memory old graph + plan.
type PrevAssignment interface {
	NumShards() int
	ShardFingerprint(i int) uint64
	// PrevQuery returns the previous id and shard of the query named name.
	PrevQuery(name string) (id, shard int, ok bool)
	// PrevAd is PrevQuery for the ad side.
	PrevAd(name string) (id, shard int, ok bool)
}

// Diff is the outcome of mapping a new graph against a previous
// assignment: the projected plan for the new graph (previous shard
// indices preserved, so shard i of the plan corresponds to segment i of
// the previous snapshot; wholly-new components land in one appended
// shard) and the per-shard dirty classification.
type Diff struct {
	// Plan covers the new graph. Shards [0, PrevShards) correspond
	// index-for-index to the previous generation's; any shard at index >=
	// PrevShards is new. Exactness is recomputed from the projected cut
	// edges, not carried over.
	Plan *Plan
	// Dirty has one entry per Plan shard: false means the shard's
	// subgraph (nodes with their ids, incident edges with their weights)
	// is identical to the previous generation's — its scores and its
	// snapshot segment can be reused without recomputation.
	Dirty []bool
	// PrevShards echoes the previous generation's shard count.
	PrevShards int
	// CleanShards and DirtyShards count the classification.
	CleanShards, DirtyShards int
	// NewQueries/NewAds count nodes whose names the previous generation
	// did not know; MovedQueries/MovedAds count nodes re-interned under a
	// different id (their shards are dirty: stored segments key scores by
	// id, so an id shift invalidates them even if the topology matched).
	NewQueries, NewAds     int
	MovedQueries, MovedAds int
}

// DiffPlans maps the new graph g against a previous assignment:
//
//  1. Every node whose name the previous generation knew keeps its
//     previous shard (nodes whose id changed are recorded as moved).
//  2. Nodes with unknown names adopt a shard from an already-assigned
//     neighbor (breadth-first, so a chain of new nodes hanging off an old
//     shard joins that shard); nodes in wholly-new components — no path
//     to any previously-known node — are collected into one appended
//     shard, which is a union of whole components by construction.
//  3. The projected plan is annotated (cut edges + fingerprints) in one
//     edge scan; a shard is clean iff its fingerprint equals the previous
//     generation's and it absorbed no new or moved node. Deleted nodes
//     and changed, added or removed edges all flip the fingerprint, so
//     they need no separate tracking.
//
// Exactness of each projected shard is re-derived (CutEdges == 0), since
// churn can connect or disconnect shards regardless of what the old plan
// believed.
func DiffPlans(prev PrevAssignment, g *clickgraph.Graph) (*Diff, error) {
	nq, na := g.NumQueries(), g.NumAds()
	prevShards := prev.NumShards()
	if prevShards < 1 {
		return nil, fmt.Errorf("partition: previous assignment has no shards")
	}
	d := &Diff{PrevShards: prevShards}

	qShard := make([]int32, nq)
	aShard := make([]int32, na)
	// touched marks shards that gained a new or moved node: dirty even if
	// the fingerprint happened to match (it cannot for moved ids, but the
	// classification should not lean on hash sensitivity alone).
	touched := make([]bool, prevShards+1)
	var newQ, newA []int // unassigned after the name pass
	for q := 0; q < nq; q++ {
		oldID, sh, ok := prev.PrevQuery(g.Query(q))
		if !ok {
			qShard[q] = -1
			newQ = append(newQ, q)
			d.NewQueries++
			continue
		}
		qShard[q] = int32(sh)
		if oldID != q {
			d.MovedQueries++
			touched[sh] = true
		}
	}
	for a := 0; a < na; a++ {
		oldID, sh, ok := prev.PrevAd(g.Ad(a))
		if !ok {
			aShard[a] = -1
			newA = append(newA, a)
			d.NewAds++
			continue
		}
		aShard[a] = int32(sh)
		if oldID != a {
			d.MovedAds++
			touched[sh] = true
		}
	}

	// Attach new nodes to a neighbor's shard, breadth-first: each pass
	// assigns nodes adjacent to the assigned frontier, so chains resolve
	// in as many passes as their depth. Churn is marginal by assumption;
	// in the worst (wholly-new long chain) case this is passes × degree
	// scans over only the still-new nodes.
	for len(newQ) > 0 || len(newA) > 0 {
		progress := false
		rq := newQ[:0]
		for _, q := range newQ {
			assigned := false
			nbrs, _ := g.AdsOf(q)
			for _, a := range nbrs {
				if aShard[a] >= 0 {
					qShard[q] = aShard[a]
					touched[aShard[a]] = true
					assigned, progress = true, true
					break
				}
			}
			if !assigned {
				rq = append(rq, q)
			}
		}
		newQ = rq
		ra := newA[:0]
		for _, a := range newA {
			assigned := false
			nbrs, _ := g.QueriesOf(a)
			for _, q := range nbrs {
				if qShard[q] >= 0 {
					aShard[a] = qShard[q]
					touched[qShard[q]] = true
					assigned, progress = true, true
					break
				}
			}
			if !assigned {
				ra = append(ra, a)
			}
		}
		newA = ra
		if !progress {
			break
		}
	}
	// Leftovers are wholly-new components: one appended shard.
	appended := len(newQ) > 0 || len(newA) > 0
	numShards := prevShards
	if appended {
		for _, q := range newQ {
			qShard[q] = int32(prevShards)
		}
		for _, a := range newA {
			aShard[a] = int32(prevShards)
		}
		touched[prevShards] = true
		numShards++
	}

	p := &Plan{Shards: make([]Shard, numShards), NumQueries: nq, NumAds: na}
	for q := 0; q < nq; q++ { // ascending ids, so shard lists come out sorted
		s := &p.Shards[qShard[q]]
		s.Queries = append(s.Queries, q)
	}
	for a := 0; a < na; a++ {
		s := &p.Shards[aShard[a]]
		s.Ads = append(s.Ads, a)
	}
	p.Reannotate(g)
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("partition: projected plan invalid: %w", err)
	}

	d.Plan = p
	d.Dirty = make([]bool, numShards)
	for si := range p.Shards {
		dirty := si >= prevShards || touched[si] ||
			p.Shards[si].Fingerprint != prev.ShardFingerprint(si)
		d.Dirty[si] = dirty
		if dirty {
			d.DirtyShards++
		} else {
			d.CleanShards++
		}
	}
	return d, nil
}
