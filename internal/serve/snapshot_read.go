package serve

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/frame"
	"simrankpp/internal/hedge"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// segEntry is one decoded directory row.
type segEntry struct {
	qOff, aOff     uint64
	qPairs, aPairs uint64
	qCRC, aCRC     uint32
	fp             uint64
	tkOff          uint64
	tkLen          uint64
	tkCRC          uint32
}

// segState is one score segment's lazy-load state machine. A segment
// that fails to load (torn write, bad disk, CRC mismatch, records that
// break the layout's invariants) is quarantined: lookups against it fail
// fast until a capped exponential backoff elapses, then the next touch
// retries the load — so a transient fault heals without a restart while
// a persistent one cannot melt the disk with retry storms. The mutex
// makes concurrent first touches race-free (one loader, everyone else
// waits, exactly like the sync.Once it replaced); after a successful
// load raw and byJ are never written again.
type segState struct {
	mu sync.Mutex
	// raw is the segment's (or, for the top-k side, the blob's) verified
	// bytes: a slice of the mapping, or a buffer ReadAt filled.
	raw []byte
	// byJ is the scatter index over a score segment's raw (see
	// segView.byJ): record indices sorted by (j, i), built once here so
	// ranked lookups never scan the segment.
	byJ      []uint32
	loaded   bool
	err      error     // last load failure
	failures int       // consecutive load failures
	retryAt  time.Time // quarantined until then
	// ready mirrors loaded with release/acquire semantics: once a load
	// succeeds the payload fields above are frozen, so readers that
	// observe ready skip the mutex entirely — a segment lookup on the
	// hot path costs no lock once its shard is warm.
	ready atomic.Bool
}

// snapShard is one shard's lazily-loaded state: the two score-segment
// sides plus the precomputed top-k rewrite blob.
type snapShard struct {
	q, a, tk segState
}

// errQuarantined wraps a segment's load failure while its backoff has
// not elapsed: the fault is remembered, the disk is not re-touched.
type errQuarantined struct {
	shard    int
	side     string
	failures int
	retryAt  time.Time
	cause    error
}

func (e *errQuarantined) Error() string {
	return fmt.Sprintf("serve: shard %d %s segment quarantined after %d failed loads (retry at %s): %v",
		e.shard, e.side, e.failures, e.retryAt.UTC().Format(time.RFC3339), e.cause)
}

func (e *errQuarantined) Unwrap() error { return e.cause }

// ShardHealth describes one quarantined score segment — the /readyz and
// /stats degraded-mode detail.
type ShardHealth struct {
	Shard    int       `json:"shard"`
	Side     string    `json:"side"` // "query", "ad", or "topk"
	Failures int       `json:"failures"`
	Error    string    `json:"error"`
	RetryAt  time.Time `json:"retry_at"`
}

// Snapshot is a loaded snapshot file implementing ScoreIndex, and what a
// Server answers from. Opening
// reads only the header, string table, route map and directory — O(nodes),
// independent of how many scores the file holds; each shard's score
// segments are fetched, verified and indexed on first access, then
// binary-searched in place (segView). Where the bytes live is the only
// thing that varies: a memory-mapped snapshot (OpenSnapshot, where the
// platform can map) slices them out of the mapping, any other reads
// them into memory with ReadAt.
type Snapshot struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer
	// mapped is the whole file when memory-mapped, else nil. Views
	// handed out (segment raws, top-k blobs) alias this memory, so Close
	// must not be called while lookups are in flight — the server swap
	// protocol (write-lock the index swap) guarantees that.
	mapped []byte

	meta         SnapshotMeta
	queries, ads []string
	queryIndex   clickgraph.NameIndex
	adIndex      clickgraph.NameIndex
	qRoute       []uint32
	aRoute       []uint32
	dir          []segEntry
	shards       []snapShard
	// loaded counts successfully materialized segments; atomic because
	// stats readers race with lazy loads under the per-segment locks.
	loaded atomic.Int32

	// Quarantine policy for failed segment loads (1s base, 1m cap); now
	// is a clock hook so chaos tests can step through backoff windows
	// deterministically, and the schedule's equal jitter (wait spread over
	// [backoff/2, backoff]) keeps simultaneously-quarantined shards from
	// retrying in lockstep and hammering the disk together. Tests replace
	// both after opening; a jitter pinned at 1 reproduces the undithered
	// exponential schedule.
	quarantine hedge.Backoff
	now        func() time.Time

	mu      sync.Mutex
	lazyErr error // first segment-load failure, surfaced via Err
}

// OpenSnapshot opens a snapshot file, memory-mapping it when the
// platform can; when it cannot (or the map fails) segments are read into
// memory on first touch instead. Close releases it.
func OpenSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	mapped, _ := mmapFile(f, st.Size()) // nil on failure: not fatal
	s, err := newSnapshot(f, st.Size(), mapped)
	if err != nil {
		if mapped != nil {
			munmapFile(mapped)
		}
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// NewSnapshot opens a snapshot from any random-access reader of the
// given total size. Nothing is mapped (that needs a file; use
// OpenSnapshot): segment bytes are fetched with ReadAt.
func NewSnapshot(r io.ReaderAt, size int64) (*Snapshot, error) {
	return newSnapshot(r, size, nil)
}

func newSnapshot(r io.ReaderAt, size int64, mapped []byte) (*Snapshot, error) {
	if size < headerSize {
		return nil, fmt.Errorf("serve: snapshot too small (%d bytes)", size)
	}
	hdr := make([]byte, headerSize)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("serve: reading snapshot header: %w", err)
	}
	h, err := frame.Open(hdr, snapshotMagic)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot header: %w", err)
	}
	s := &Snapshot{
		r: r, size: size, mapped: mapped,
		// The first failed load of a segment waits a second, each
		// further one doubles it up to a minute.
		quarantine: hedge.Backoff{Base: time.Second, Max: time.Minute},
		now:        time.Now,
	}
	m := &s.meta
	version, flags := h.U32(), h.U32()
	m.Variant = core.Variant(h.U32())
	m.Iterations = int(h.U32())
	m.C1, m.C2 = h.F64(), h.F64()
	m.NumQueries, m.NumAds, m.Shards = int(h.U32()), int(h.U32()), int(h.U32())
	stringsCRC := h.U32()
	m.QueryPairs, m.AdPairs = int64(h.U64()), int64(h.U64())
	stringsOff, stringsLen := h.U64(), h.U64()
	routeOff, routeLen := h.U64(), h.U64()
	dirOff, dirLen := h.U64(), h.U64()
	routeCRC, dirCRC := h.U32(), h.U32()
	m.GeneratedAt = time.Unix(int64(h.U64()), 0).UTC()
	dirty := h.U32()
	m.Channel = core.WeightChannel(h.U32())
	m.EvidenceForm = core.EvidenceForm(h.U32())
	m.PruneEpsilon, m.Tolerance, m.DeltaSkipTol = h.F64(), h.F64(), h.F64()
	m.IterationBudget = int(h.U32())
	m.RewriteTopK, m.RewriteTopN = int(h.U32()), int(h.U32())
	m.RewriteBidHash = h.U64()
	h.U32() // reserved
	if err := h.Done(); err != nil {
		return nil, fmt.Errorf("serve: snapshot header: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", version, snapshotVersion)
	}
	if unknown := flags &^ knownFlags; unknown != 0 {
		return nil, fmt.Errorf("serve: snapshot header sets unknown flags %#x", unknown)
	}
	m.Converged = flags&flagConverged != 0
	m.StrictEvidence = flags&flagStrictEvidence != 0
	// A recorded config a run would refuse is refused here, not at the
	// first refresh: it is the config a refresh runs dirty shards with.
	if err := s.Config().Validate(); err != nil {
		return nil, fmt.Errorf("serve: snapshot header: %w", err)
	}
	m.LastRefreshDirty = int(dirty)
	if dirty == fullBuildSentinel {
		m.LastRefreshDirty = -1
	}
	m.RewriteBidFiltered = m.RewriteBidHash != 0

	// Structural sanity before any size-driven allocation: the section
	// lengths must agree with the header's dimensions, and the names
	// cannot outnumber the string-table bytes (each name costs ≥ 1 byte).
	// Everything allocated below is thereby bounded by the input size.
	nq, na := s.meta.NumQueries, s.meta.NumAds
	if routeLen != uint64(4*(nq+na)) {
		return nil, fmt.Errorf("serve: route map is %d bytes, want %d", routeLen, 4*(nq+na))
	}
	if dirLen != uint64(dirEntrySize*s.meta.Shards) {
		return nil, fmt.Errorf("serve: shard directory is %d bytes, want %d", dirLen, dirEntrySize*s.meta.Shards)
	}
	if stringsLen < uint64(nq)+uint64(na) {
		return nil, fmt.Errorf("serve: string table of %d bytes cannot hold %d names", stringsLen, nq+na)
	}

	strBuf, err := s.region("string table", stringsOff, stringsLen, stringsCRC)
	if err != nil {
		return nil, err
	}
	route, err := s.region("route map", routeOff, routeLen, routeCRC)
	if err != nil {
		return nil, err
	}
	dirBuf, err := s.region("shard directory", dirOff, dirLen, dirCRC)
	if err != nil {
		return nil, err
	}

	s.queries = make([]string, nq)
	s.ads = make([]string, na)
	// Intern the whole table once: every name is a substring of one
	// backing string, so decoding costs one allocation total (not one
	// per name) and lookups never re-touch the raw section. The copy
	// also detaches names from mapped memory, keeping them valid past
	// Close.
	interned := string(strBuf)
	table := frame.NewDecoder(strBuf)
	readName := func() string {
		n := table.Count(table.Uvarint(), "name byte", 1)
		at := table.Pos()
		table.Raw(n)
		return interned[at : at+n]
	}
	for q := range s.queries {
		s.queries[q] = readName()
	}
	for a := range s.ads {
		s.ads[a] = readName()
	}
	if err := table.Done(); err != nil {
		return nil, fmt.Errorf("serve: string table: %w", err)
	}
	// The two sides' indexes, one goroutine each, each sized for its side.
	var dup [2]int
	parallelFor(poolWidth(2), 2, func(_, side int) {
		if side == 0 {
			s.queryIndex, dup[0] = clickgraph.NewNameIndex(s.queries)
		} else {
			s.adIndex, dup[1] = clickgraph.NewNameIndex(s.ads)
		}
	})
	if dup[0] >= 0 {
		return nil, fmt.Errorf("serve: string table: query %d repeats the name %q", dup[0], s.queries[dup[0]])
	}
	if dup[1] >= 0 {
		return nil, fmt.Errorf("serve: string table: ad %d repeats the name %q", dup[1], s.ads[dup[1]])
	}

	s.qRoute = make([]uint32, nq)
	s.aRoute = make([]uint32, na)
	for q := 0; q < nq; q++ {
		s.qRoute[q] = binary.LittleEndian.Uint32(route[4*q:])
	}
	for a := 0; a < na; a++ {
		s.aRoute[a] = binary.LittleEndian.Uint32(route[4*(nq+a):])
	}
	s.dir = make([]segEntry, s.meta.Shards)
	entries := frame.NewDecoder(dirBuf)
	var genFP uint64
	for i := range s.dir {
		s.dir[i] = segEntry{qOff: entries.U64(), aOff: entries.U64(), qPairs: entries.U64(), aPairs: entries.U64(),
			qCRC: entries.U32(), aCRC: entries.U32(), fp: entries.U64(),
			tkOff: entries.U64(), tkLen: uint64(entries.U32()), tkCRC: entries.U32()}
		genFP ^= s.dir[i].fp
	}
	s.meta.Fingerprint = fmt.Sprintf("%016x", genFP)
	for si, r := range s.qRoute {
		if int(r) >= s.meta.Shards {
			return nil, fmt.Errorf("serve: query %d routed to shard %d of %d", si, r, s.meta.Shards)
		}
	}
	for si, r := range s.aRoute {
		if int(r) >= s.meta.Shards {
			return nil, fmt.Errorf("serve: ad %d routed to shard %d of %d", si, r, s.meta.Shards)
		}
	}
	s.shards = make([]snapShard, s.meta.Shards)
	return s, nil
}

// region returns the checksum-verified bytes of [off, off+length) — a
// slice of the mapping when the file is mapped, a buffer filled by
// ReadAt otherwise. Every byte the reader serves comes through here. The
// bounds check is overflow-safe: length is checked against the file size
// before the offset is, so off+length cannot wrap.
func (s *Snapshot) region(what string, off, length uint64, wantCRC uint32) ([]byte, error) {
	if length > uint64(s.size) || off > uint64(s.size)-length {
		return nil, fmt.Errorf("serve: %s [%d,+%d) extends past snapshot end (%d bytes)", what, off, length, s.size)
	}
	var buf []byte
	switch {
	case length == 0:
		// An empty region may sit exactly at end of file, where some
		// ReaderAt implementations return EOF even for zero-length reads.
	case s.mapped != nil:
		buf = s.mapped[off : off+length]
	default:
		buf = make([]byte, length)
		if _, err := s.r.ReadAt(buf, int64(off)); err != nil {
			return nil, fmt.Errorf("serve: reading %s: %w", what, err)
		}
	}
	if crc32.ChecksumIEEE(buf) != wantCRC {
		return nil, fmt.Errorf("serve: %s checksum mismatch", what)
	}
	return buf, nil
}

// segmentBytes returns the verified raw bytes of one side of shard si: a
// score segment ("query", "ad") or the precomputed top-k blob ("topk",
// nil when the snapshot was written with the section disabled) — what
// segLoad serves from and what a refresh byte-copies for clean shards.
func (s *Snapshot) segmentBytes(side string, si int) ([]byte, error) {
	e := &s.dir[si]
	what := fmt.Sprintf("shard %d %s segment", si, side)
	off, pairs, crc := e.qOff, e.qPairs, e.qCRC
	switch side {
	case "topk":
		return s.region(what, e.tkOff, e.tkLen, e.tkCRC)
	case "ad":
		off, pairs, crc = e.aOff, e.aPairs, e.aCRC
	}
	// Bound pairs before multiplying, so the byte length cannot wrap.
	if pairs > uint64(s.size)/pairRecordSize {
		return nil, fmt.Errorf("serve: %s claims %d pairs, more than the snapshot holds (%d bytes)", what, pairs, s.size)
	}
	return s.region(what, off, pairs*pairRecordSize, crc)
}

func (s *Snapshot) recordErr(err error) {
	s.mu.Lock()
	if s.lazyErr == nil {
		s.lazyErr = err
	}
	s.mu.Unlock()
}

// segLoad materializes one segment side under st's lock, running the
// shared quarantine state machine. A failed load quarantines the
// segment: until its backoff elapses, callers get the remembered error
// without a disk touch; after it elapses, the next touch retries —
// which is how a shard recovers once a transient fault clears. All
// other shards are untouched by one shard's quarantine: the daemon
// keeps answering for them. Beyond the checksum every side is validated
// structurally, because lookups trust what they read: "query"/"ad"
// records must be strictly ascending with in-range ids (checked while
// the scatter index is built), the "topk" blob well-formed.
func (s *Snapshot) segLoad(st *segState, side string, si int) error {
	if st.loaded {
		return nil
	}
	if st.failures > 0 && s.now().Before(st.retryAt) {
		return &errQuarantined{shard: si, side: side, failures: st.failures, retryAt: st.retryAt, cause: st.err}
	}
	raw, err := s.segmentBytes(side, si)
	if err == nil {
		switch side {
		case "topk":
			err = validateTopKBlob(raw, s.meta.RewriteTopK)
		case "query":
			st.byJ, err = buildScatterIndex(raw, s.meta.NumQueries)
		default:
			st.byJ, err = buildScatterIndex(raw, s.meta.NumAds)
		}
		if err != nil {
			err = fmt.Errorf("serve: shard %d %s segment: %w", si, side, err)
		}
	}
	if err != nil {
		st.failures++
		st.err = err
		st.retryAt = s.now().Add(s.quarantine.Delay(st.failures))
		s.recordErr(err)
		return err
	}
	st.raw = raw
	st.loaded = true
	st.failures, st.err = 0, nil
	st.ready.Store(true)
	s.loaded.Add(1)
	return nil
}

// view returns one side's verified score segment, loading it on first
// use.
func (s *Snapshot) view(st *segState, side string, si int) (segView, error) {
	if !st.ready.Load() {
		st.mu.Lock()
		defer st.mu.Unlock()
		if err := s.segLoad(st, side, si); err != nil {
			return segView{}, err
		}
	}
	return segView{b: st.raw, byJ: st.byJ}, nil
}

func (s *Snapshot) queryView(si int) (segView, error) {
	return s.view(&s.shards[si].q, "query", si)
}

func (s *Snapshot) adView(si int) (segView, error) {
	return s.view(&s.shards[si].a, "ad", si)
}

// topkBlob returns shard si's verified precomputed rewrite blob, loading
// it on first use; nil when the snapshot carries no section.
func (s *Snapshot) topkBlob(si int) ([]byte, error) {
	st := &s.shards[si].tk
	if st.ready.Load() {
		return st.raw, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.segLoad(st, "topk", si); err != nil {
		return nil, err
	}
	return st.raw, nil
}

// Mmapped reports whether the segment bytes are a memory mapping rather
// than read into memory (the /stats `mmap` field).
func (s *Snapshot) Mmapped() bool { return s.mapped != nil }

// Quarantined reports every score segment currently in quarantine — a
// past load failed and no retry has succeeded since. Empty means fully
// healthy (or untouched: lazily-loaded segments that were never read
// are not failures).
func (s *Snapshot) Quarantined() []ShardHealth {
	var out []ShardHealth
	for i := range s.shards {
		for _, side := range [3]struct {
			name string
			st   *segState
		}{{"query", &s.shards[i].q}, {"ad", &s.shards[i].a}, {"topk", &s.shards[i].tk}} {
			side.st.mu.Lock()
			if !side.st.loaded && side.st.failures > 0 {
				out = append(out, ShardHealth{
					Shard:    i,
					Side:     side.name,
					Failures: side.st.failures,
					Error:    side.st.err.Error(),
					RetryAt:  side.st.retryAt,
				})
			}
			side.st.mu.Unlock()
		}
	}
	return out
}

// Meta returns the snapshot's run metadata.
func (s *Snapshot) Meta() SnapshotMeta { return s.meta }

// Err returns the first score-segment load failure, if any. Lookup methods
// on a shard whose segment is unreadable return empty results; servers
// surface this through /stats.
func (s *Snapshot) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lazyErr
}

// LoadedSegments counts the score segments currently materialized — the
// observable face of lazy loading (0 right after opening). Safe to call
// concurrently with lazy loads (stats endpoint vs cold queries).
func (s *Snapshot) LoadedSegments() int { return int(s.loaded.Load()) }

// PreloadAll materializes and verifies every score segment and top-k
// blob, shards in parallel, and returns the failure of the lowest-numbered
// shard that had one. A failed segment is quarantined like any failed
// first touch; every other segment is still loaded. Use it to validate a
// snapshot end to end.
func (s *Snapshot) PreloadAll() error {
	errs := make([]error, len(s.shards))
	parallelFor(poolWidth(len(s.shards)), len(s.shards), func(_, i int) {
		_, qErr := s.queryView(i)
		_, aErr := s.adView(i)
		_, tkErr := s.topkBlob(i)
		errs[i] = cmp.Or(qErr, aErr, tkErr)
	})
	return cmp.Or(errs...)
}

// Close unmaps the snapshot (when mapped) and releases the underlying
// file (when file-backed). Lookups must not race with Close: views
// handed out by a mapped snapshot alias the mapping.
func (s *Snapshot) Close() error {
	var err error
	if s.mapped != nil {
		err = munmapFile(s.mapped)
		s.mapped = nil
	}
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// NumQueries implements ScoreIndex.
func (s *Snapshot) NumQueries() int { return s.meta.NumQueries }

// NumAds implements ScoreIndex.
func (s *Snapshot) NumAds() int { return s.meta.NumAds }

// Query implements ScoreIndex.
func (s *Snapshot) Query(id int) string { return s.queries[id] }

// Ad implements ScoreIndex.
func (s *Snapshot) Ad(id int) string { return s.ads[id] }

// QueryID implements ScoreIndex.
func (s *Snapshot) QueryID(name string) (int, bool) {
	return s.queryIndex.Find(s.queries, name)
}

// AdID implements ScoreIndex.
func (s *Snapshot) AdID(name string) (int, bool) {
	return s.adIndex.Find(s.ads, name)
}

// ranked is the one ranked-list lookup of both sides: it routes id to its
// shard's segment of that side and answers from that segment alone, under
// a request deadline. An already-expired context returns before triggering
// a lazy segment load (the one potentially slow step on this path), and a
// load failure — or a quarantined segment inside its backoff — is an error
// instead of an indistinguishable empty ranking.
func (s *Snapshot) ranked(ctx context.Context, side clickgraph.Side, id, k int) ([]sparse.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var v segView
	var err error
	if side == clickgraph.QuerySide {
		v, err = s.queryView(int(s.qRoute[id]))
	} else {
		v, err = s.adView(int(s.aRoute[id]))
	}
	if err != nil {
		return nil, err
	}
	out := v.topKFor(id, k)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// TopRewrites implements ScoreIndex; a failed segment load answers an
// empty ranking (the server's ranked lookup reports it).
func (s *Snapshot) TopRewrites(q, k int) []sparse.Scored {
	out, _ := s.ranked(context.Background(), clickgraph.QuerySide, q, k)
	return out
}

// TopSimilarAds implements ScoreIndex, like TopRewrites.
func (s *Snapshot) TopSimilarAds(a, k int) []sparse.Scored {
	out, _ := s.ranked(context.Background(), clickgraph.AdSide, a, k)
	return out
}

// VariantName implements ScoreIndex.
func (s *Snapshot) VariantName() string { return s.meta.Variant.String() }

// The methods below implement partition.PrevAssignment, so a previous
// snapshot alone — names from the string table, shards from the route
// map, fingerprints from the directory — is enough for partition.DiffPlans
// to classify a new graph's shards as clean or dirty.

// NumShards implements partition.PrevAssignment.
func (s *Snapshot) NumShards() int { return s.meta.Shards }

// ShardFingerprint implements partition.PrevAssignment.
func (s *Snapshot) ShardFingerprint(i int) uint64 { return s.dir[i].fp }

// PrevQuery implements partition.PrevAssignment.
func (s *Snapshot) PrevQuery(name string) (id, shard int, ok bool) {
	id, ok = s.QueryID(name)
	if !ok {
		return 0, 0, false
	}
	return id, int(s.qRoute[id]), true
}

// PrevAd implements partition.PrevAssignment.
func (s *Snapshot) PrevAd(name string) (id, shard int, ok bool) {
	id, ok = s.AdID(name)
	if !ok {
		return 0, 0, false
	}
	return id, int(s.aRoute[id]), true
}

var _ partition.PrevAssignment = (*Snapshot)(nil)

// Config reconstructs the engine configuration recorded in the header —
// what a refresh must run dirty shards with for clean-shard reuse to be
// coherent.
func (s *Snapshot) Config() core.Config {
	return core.Config{
		C1:                 s.meta.C1,
		C2:                 s.meta.C2,
		Iterations:         max(1, s.meta.IterationBudget),
		Tolerance:          s.meta.Tolerance,
		Variant:            s.meta.Variant,
		EvidenceForm:       s.meta.EvidenceForm,
		Channel:            s.meta.Channel,
		StrictEvidence:     s.meta.StrictEvidence,
		PruneEpsilon:       s.meta.PruneEpsilon,
		DeltaSkipTolerance: s.meta.DeltaSkipTol,
	}
}
