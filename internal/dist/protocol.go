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
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"simrankpp/internal/core"
)

// Wire formats (all integers little-endian).
//
// A lease ("SRPPLEA1") is one dirty shard's complete work order: the
// shard's induced subgraph (names in subview-local = ascending-global
// order, edges with all three weight channels), the global id maps the
// response's segments must be keyed by, the engine configuration as
// JSON, and optional warm-start pairs drawn from the previous
// generation. A trailing CRC32 covers every preceding byte.
//
// A segment response ("SRPPSEG1") echoes the lease identity
// (generation, shard, fingerprint), reports the shard run's iteration
// count and convergence, and carries the two encoded score segments —
// the exact bytes serve.AssembleRefresh stores — each with its own
// CRC32, plus a whole-message CRC32 trailer.

const (
	leaseMagic    = "SRPPLEA1"
	responseMagic = "SRPPSEG1"

	// maxWireNodes/maxWireEdges/maxWirePairs bound decoded counts so a
	// corrupt or hostile length prefix cannot drive an allocation bomb.
	maxWireNodes = 1 << 28
	maxWireEdges = 1 << 30
	maxWirePairs = 1 << 30
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
	QuerySeg    []byte
	QueryCRC    uint32
	AdSeg       []byte
	AdCRC       uint32
}

// wireWriter accumulates an encoding; the CRC trailer is appended last
// over everything before it.
type wireWriter struct{ buf []byte }

func (w *wireWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *wireWriter) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *wireWriter) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *wireWriter) str(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *wireWriter) finish() []byte {
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
}

// wireReader decodes with bounds checks; any overrun marks err and
// every later read returns zero values, so decoders check err once.
type wireReader struct {
	buf []byte
	pos int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("dist: truncated message (want %d bytes at offset %d of %d)", n, r.pos, len(r.buf))
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *wireReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) str() string {
	if r.err != nil {
		return ""
	}
	n, sz := binary.Uvarint(r.buf[r.pos:])
	if sz <= 0 || n > uint64(len(r.buf)) {
		r.fail("dist: bad string length at offset %d", r.pos)
		return ""
	}
	r.pos += sz
	return string(r.take(int(n)))
}

// count reads a u32 length prefix bounded by max.
func (r *wireReader) count(what string, max int) int {
	n := r.u32()
	if r.err == nil && int64(n) > int64(max) {
		r.fail("dist: %s count %d exceeds limit %d", what, n, max)
	}
	return int(n)
}

// checkTrailer verifies buf ends with a CRC32 over the rest and returns
// the payload without it.
func checkTrailer(buf []byte, what string) ([]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("dist: %s too short for a CRC trailer (%d bytes)", what, len(buf))
	}
	body, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("dist: %s CRC mismatch (got %08x want %08x) — corrupt in transit", what, got, want)
	}
	return body, nil
}

// Encode serializes the lease with its CRC trailer.
func (l *Lease) Encode() ([]byte, error) {
	if len(l.QueryNames) != len(l.QueryIDs) || len(l.AdNames) != len(l.AdIDs) {
		return nil, fmt.Errorf("dist: lease name/id lists disagree (%d/%d queries, %d/%d ads)",
			len(l.QueryNames), len(l.QueryIDs), len(l.AdNames), len(l.AdIDs))
	}
	cfgJSON, err := json.Marshal(l.Config)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding lease config: %w", err)
	}
	w := &wireWriter{}
	w.bytes([]byte(leaseMagic))
	w.u64(l.Generation)
	w.u32(l.Shard)
	w.u64(l.Fingerprint)
	w.u32(uint32(len(cfgJSON)))
	w.bytes(cfgJSON)
	w.u32(uint32(len(l.QueryNames)))
	w.u32(uint32(len(l.AdNames)))
	for _, s := range l.QueryNames {
		w.str(s)
	}
	for _, s := range l.AdNames {
		w.str(s)
	}
	for _, id := range l.QueryIDs {
		w.u32(uint32(id))
	}
	for _, id := range l.AdIDs {
		w.u32(uint32(id))
	}
	w.u32(uint32(len(l.Edges)))
	for _, e := range l.Edges {
		w.u32(e.Q)
		w.u32(e.A)
		w.u64(uint64(e.Impressions))
		w.u64(uint64(e.Clicks))
		w.f64(e.Rate)
	}
	for _, pairs := range [2][]WirePair{l.WarmQuery, l.WarmAd} {
		w.u32(uint32(len(pairs)))
		for _, p := range pairs {
			w.u32(p.I)
			w.u32(p.J)
			w.f64(p.Score)
		}
	}
	return w.finish(), nil
}

// DecodeLease parses and validates a lease message.
func DecodeLease(buf []byte) (*Lease, error) {
	body, err := checkTrailer(buf, "lease")
	if err != nil {
		return nil, err
	}
	r := &wireReader{buf: body}
	if magic := r.take(8); r.err != nil || string(magic) != leaseMagic {
		return nil, fmt.Errorf("dist: bad lease magic")
	}
	l := &Lease{}
	l.Generation = r.u64()
	l.Shard = r.u32()
	l.Fingerprint = r.u64()
	cfgJSON := r.take(r.count("config", 1<<20))
	if r.err == nil {
		if err := json.Unmarshal(cfgJSON, &l.Config); err != nil {
			return nil, fmt.Errorf("dist: decoding lease config: %w", err)
		}
	}
	nq := r.count("query", maxWireNodes)
	na := r.count("ad", maxWireNodes)
	if r.err != nil {
		return nil, r.err
	}
	l.QueryNames = make([]string, nq)
	for i := range l.QueryNames {
		l.QueryNames[i] = r.str()
	}
	l.AdNames = make([]string, na)
	for i := range l.AdNames {
		l.AdNames[i] = r.str()
	}
	l.QueryIDs = make([]int, nq)
	for i := range l.QueryIDs {
		l.QueryIDs[i] = int(r.u32())
	}
	l.AdIDs = make([]int, na)
	for i := range l.AdIDs {
		l.AdIDs[i] = int(r.u32())
	}
	ne := r.count("edge", maxWireEdges)
	if r.err != nil {
		return nil, r.err
	}
	l.Edges = make([]WireEdge, ne)
	for i := range l.Edges {
		l.Edges[i] = WireEdge{
			Q:           r.u32(),
			A:           r.u32(),
			Impressions: int64(r.u64()),
			Clicks:      int64(r.u64()),
			Rate:        r.f64(),
		}
	}
	for _, dst := range [2]*[]WirePair{&l.WarmQuery, &l.WarmAd} {
		np := r.count("warm pair", maxWirePairs)
		if r.err != nil {
			return nil, r.err
		}
		pairs := make([]WirePair, np)
		for i := range pairs {
			pairs[i] = WirePair{I: r.u32(), J: r.u32(), Score: r.f64()}
		}
		*dst = pairs
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("dist: %d trailing bytes after lease", len(body)-r.pos)
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

// Encode serializes the response with its CRC trailer.
func (resp *SegmentResponse) Encode() []byte {
	w := &wireWriter{}
	w.bytes([]byte(responseMagic))
	w.u64(resp.Generation)
	w.u32(resp.Shard)
	w.u64(resp.Fingerprint)
	w.u32(uint32(resp.Iterations))
	if resp.Converged {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(resp.QuerySeg)))
	w.u32(resp.QueryCRC)
	w.u32(uint32(len(resp.AdSeg)))
	w.u32(resp.AdCRC)
	w.bytes(resp.QuerySeg)
	w.bytes(resp.AdSeg)
	return w.finish()
}

// DecodeSegmentResponse parses and validates a response message.
func DecodeSegmentResponse(buf []byte) (*SegmentResponse, error) {
	body, err := checkTrailer(buf, "segment response")
	if err != nil {
		return nil, err
	}
	r := &wireReader{buf: body}
	if magic := r.take(8); r.err != nil || string(magic) != responseMagic {
		return nil, fmt.Errorf("dist: bad segment response magic")
	}
	resp := &SegmentResponse{}
	resp.Generation = r.u64()
	resp.Shard = r.u32()
	resp.Fingerprint = r.u64()
	resp.Iterations = int(r.u32())
	resp.Converged = r.u8() != 0
	qLen := r.count("query segment byte", len(body))
	resp.QueryCRC = r.u32()
	aLen := r.count("ad segment byte", len(body))
	resp.AdCRC = r.u32()
	resp.QuerySeg = r.take(qLen)
	resp.AdSeg = r.take(aLen)
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("dist: %d trailing bytes after segment response", len(body)-r.pos)
	}
	return resp, nil
}
