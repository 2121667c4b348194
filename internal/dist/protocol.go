// Package dist turns the incremental refresh into a fleet operation: a
// coordinator diffs the new graph against the serving snapshot
// (partition.DiffPlans), dispatches each dirty shard as a lease to a
// pool of HTTP workers, and assembles the next generation from the
// CRC'd segments they return — the same bytes the single-machine
// refresh path writes, so a distributed refresh is byte-identical to a
// local one. Failure is the default case: leases carry deadlines and
// are re-dispatched with capped exponential backoff + jitter and
// stragglers are hedged to a second worker (internal/hedge's Do, the
// loop the read gateway runs too), duplicate completions resolve
// idempotently by (generation, shard, fingerprint), and a shard whose
// workers are all dead falls back to local recompute, so the refresh
// degrades to the single-machine path instead of failing.
package dist

import (
	"encoding/json"
	"fmt"

	"simrankpp/internal/core"
	"simrankpp/internal/frame"
	"simrankpp/internal/serve"
)

// Wire formats: each message is one internal/frame frame.
//
// A lease ("SRPPLEA1") is one dirty shard's complete work order: the
// shard's induced subgraph (names in subview-local = ascending-global
// order, edges with all three weight channels), the global id maps the
// response's segments must be keyed by, the engine configuration as
// JSON, and optional warm-start pairs drawn from the previous
// generation.
//
// A segment response ("SRPPSEG1") echoes the lease identity
// (generation, shard, fingerprint), reports the shard run's iteration
// count and convergence, and carries the two encoded score segments —
// the exact bytes serve.AssembleRefresh stores — each with the CRC32 the
// snapshot directory records for it.

const (
	leaseMagic    = "SRPPLEA1"
	responseMagic = "SRPPSEG1"
)

// WireEdge is one subgraph edge in worker-local ids with every weight
// channel, exactly what clickgraph.Builder.AddEdge needs to reproduce
// the subview's edge table.
type WireEdge struct {
	Q, A                uint32
	Impressions, Clicks int64
	Rate                float64
}

// WirePair is one warm-start score pair in worker-local ids, I < J.
type WirePair struct {
	I, J  uint32
	Score float64
}

// Lease is one dirty shard's dispatch payload.
type Lease struct {
	// Generation identifies the refresh this lease belongs to (the
	// target generation's fingerprint); Shard is the plan index;
	// Fingerprint the shard's new-graph subgraph fingerprint. The triple
	// is the idempotency key duplicate completions resolve under.
	Generation  uint64
	Shard       uint32
	Fingerprint uint64
	// Config is the engine configuration the shard must run under —
	// the previous snapshot's recorded config.
	Config core.Config
	// QueryNames/AdNames are the shard's node names in subview-local
	// order (ascending global id); QueryIDs/AdIDs the matching global
	// ids the returned segments must be remapped to.
	QueryNames, AdNames []string
	QueryIDs, AdIDs     []int
	// Edges is the induced subgraph in local ids.
	Edges []WireEdge
	// WarmQuery/WarmAd seed the shard engine from the previous
	// generation's scores (empty under a fixed-iteration config).
	WarmQuery, WarmAd []WirePair
}

// SegmentResponse is a worker's completed shard: the lease identity
// echoed, run metadata, and the encoded segments in global ids.
type SegmentResponse struct {
	Generation  uint64
	Shard       uint32
	Fingerprint uint64
	Iterations  int
	Converged   bool
	serve.ShardSegment
}

// Encode serializes the lease as a sealed frame.
func (l *Lease) Encode() ([]byte, error) {
	if len(l.QueryNames) != len(l.QueryIDs) || len(l.AdNames) != len(l.AdIDs) {
		return nil, fmt.Errorf("dist: lease name/id lists disagree (%d/%d queries, %d/%d ads)",
			len(l.QueryNames), len(l.QueryIDs), len(l.AdNames), len(l.AdIDs))
	}
	cfgJSON, err := json.Marshal(l.Config)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding lease config: %w", err)
	}
	e := frame.Append(nil, leaseMagic)
	e.U64(l.Generation)
	e.U32(l.Shard)
	e.U64(l.Fingerprint)
	e.U32(uint32(len(cfgJSON)))
	e.Raw(cfgJSON)
	e.U32(uint32(len(l.QueryNames)))
	e.U32(uint32(len(l.AdNames)))
	for _, s := range l.QueryNames {
		e.Str(s)
	}
	for _, s := range l.AdNames {
		e.Str(s)
	}
	for _, id := range l.QueryIDs {
		e.U32(uint32(id))
	}
	for _, id := range l.AdIDs {
		e.U32(uint32(id))
	}
	e.U32(uint32(len(l.Edges)))
	for _, edge := range l.Edges {
		e.U32(edge.Q)
		e.U32(edge.A)
		e.U64(uint64(edge.Impressions))
		e.U64(uint64(edge.Clicks))
		e.F64(edge.Rate)
	}
	for _, pairs := range [2][]WirePair{l.WarmQuery, l.WarmAd} {
		e.U32(uint32(len(pairs)))
		for _, p := range pairs {
			e.U32(p.I)
			e.U32(p.J)
			e.F64(p.Score)
		}
	}
	return e.Seal(), nil
}

// DecodeLease parses and validates a lease message.
func DecodeLease(buf []byte) (*Lease, error) {
	d, err := frame.Open(buf, leaseMagic)
	if err != nil {
		return nil, fmt.Errorf("dist: lease: %w", err)
	}
	l := &Lease{Generation: d.U64(), Shard: d.U32(), Fingerprint: d.U64()}
	cfgJSON := d.Raw(int(d.U32()))
	// A node takes at least a one-byte name and a four-byte id.
	nq := d.Count(uint64(d.U32()), "query", 5)
	na := d.Count(uint64(d.U32()), "ad", 5)
	l.QueryNames = make([]string, nq)
	for i := range l.QueryNames {
		l.QueryNames[i] = d.Str()
	}
	l.AdNames = make([]string, na)
	for i := range l.AdNames {
		l.AdNames[i] = d.Str()
	}
	l.QueryIDs = make([]int, nq)
	for i := range l.QueryIDs {
		l.QueryIDs[i] = int(d.U32())
	}
	l.AdIDs = make([]int, na)
	for i := range l.AdIDs {
		l.AdIDs[i] = int(d.U32())
	}
	l.Edges = make([]WireEdge, d.Count(uint64(d.U32()), "edge", 32))
	for i := range l.Edges {
		l.Edges[i] = WireEdge{Q: d.U32(), A: d.U32(), Impressions: int64(d.U64()), Clicks: int64(d.U64()), Rate: d.F64()}
	}
	for _, dst := range [2]*[]WirePair{&l.WarmQuery, &l.WarmAd} {
		pairs := make([]WirePair, d.Count(uint64(d.U32()), "warm pair", 16))
		for i := range pairs {
			pairs[i] = WirePair{I: d.U32(), J: d.U32(), Score: d.F64()}
		}
		*dst = pairs
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("dist: lease: %w", err)
	}
	if err := json.Unmarshal(cfgJSON, &l.Config); err != nil {
		return nil, fmt.Errorf("dist: decoding lease config: %w", err)
	}
	// Structural sanity beyond the CRC: local ids must address the
	// shipped node lists, warm pairs must respect the i<j storage order.
	for i, e := range l.Edges {
		if int(e.Q) >= nq || int(e.A) >= na {
			return nil, fmt.Errorf("dist: lease edge %d references node out of range", i)
		}
	}
	for _, p := range l.WarmQuery {
		if int(p.I) >= nq || int(p.J) >= nq || p.I >= p.J {
			return nil, fmt.Errorf("dist: lease warm query pair out of range or unordered")
		}
	}
	for _, p := range l.WarmAd {
		if int(p.I) >= na || int(p.J) >= na || p.I >= p.J {
			return nil, fmt.Errorf("dist: lease warm ad pair out of range or unordered")
		}
	}
	return l, nil
}

// Encode serializes the response as a sealed frame.
func (resp *SegmentResponse) Encode() []byte {
	e := frame.Append(nil, responseMagic)
	e.U64(resp.Generation)
	e.U32(resp.Shard)
	e.U64(resp.Fingerprint)
	e.U32(uint32(resp.Iterations))
	converged := uint8(0)
	if resp.Converged {
		converged = 1
	}
	e.U8(converged)
	e.U32(uint32(len(resp.QuerySeg)))
	e.U32(resp.QueryCRC)
	e.U32(uint32(len(resp.AdSeg)))
	e.U32(resp.AdCRC)
	e.Raw(resp.QuerySeg)
	e.Raw(resp.AdSeg)
	return e.Seal()
}

// DecodeSegmentResponse parses and validates a response message.
func DecodeSegmentResponse(buf []byte) (*SegmentResponse, error) {
	d, err := frame.Open(buf, responseMagic)
	if err != nil {
		return nil, fmt.Errorf("dist: segment response: %w", err)
	}
	resp := &SegmentResponse{Generation: d.U64(), Shard: d.U32(), Fingerprint: d.U64(),
		Iterations: int(d.U32()), Converged: d.U8() != 0}
	qLen := int(d.U32())
	resp.QueryCRC = d.U32()
	aLen := int(d.U32())
	resp.AdCRC = d.U32()
	resp.QuerySeg, resp.AdSeg = d.Raw(qLen), d.Raw(aLen)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("dist: segment response: %w", err)
	}
	return resp, nil
}
