package serve

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// This file is the batch→online handoff of Figure 2 in binary form: a
// versioned snapshot a sharded run writes once and a server opens in
// O(header + string table), routing each query to its shard's score
// segment without ever materializing the other shards.
//
// Layout (all integers little-endian):
//
//	header    fixed 200 bytes: magic, version, run metadata (variant,
//	          iterations executed and budgeted, C1/C2, converged,
//	          strict-evidence/spread flags, weight channel, evidence
//	          form, prune epsilon, convergence and delta-skip
//	          tolerances), graph
//	          dimensions, shard count, generation info (creation time,
//	          dirty-shard count of the refresh that produced it), section
//	          offsets/lengths, per-section CRC32s, the precomputed
//	          rewrite section's parameters (k, candidate pool, bid-term
//	          hash), and a trailing CRC32 over the header itself.
//	strings   NumQueries then NumAds names, each uvarint length + raw
//	          bytes. Length-prefixed, so names may contain tabs or
//	          newlines that would corrupt the line-oriented text format.
//	route     NumQueries + NumAds uint32s: each node's shard index — the
//	          partition.Plan node→shard map in serialized form. Pairs
//	          never cross shards (cut pairs score 0), so one lookup
//	          routes a query to the only segment that can score it.
//	dir       one fixed 64-byte entry per shard: offset, pair count and
//	          CRC32 of its query segment and of its ad segment, the
//	          shard's subgraph fingerprint — which is what lets the next
//	          refresh diff a new graph against this snapshot alone
//	          (partition.DiffPlans) and byte-copy unchanged segments
//	          (RefreshSnapshot) — plus the offset/length/CRC32 of the
//	          shard's precomputed top-k rewrite blob.
//	segments  per shard, per side: pair records (uint32 i, uint32 j,
//	          float64 score) with i < j in global ids, sorted ascending —
//	          written in parallel, one encoder per shard, and
//	          binary-searched in place, never decoded (see segview.go).
//	topk      per shard, one self-contained blob of precomputed §9.3
//	          rewrite lists: u32 entry count, then per stored query
//	          (global id ascending) a (u32 id, u32 list offset relative
//	          to the blob, u32 list length) entry, then the list records
//	          (u32 rewrite id, float64 score). Offsets are blob-relative
//	          and ids are global, so a refresh byte-copies clean shards'
//	          blobs exactly like score segments. See topk.go.

const (
	snapshotMagic   = "SRPPSNAP"
	snapshotVersion = 3
	headerSize      = 200
	dirEntrySize    = 64
	pairRecordSize  = 16

	// Precomputed top-k blob encoding: per-query directory entries and
	// list records (see topk.go).
	topkEntrySize = 12
	topkRecSize   = 12

	flagConverged      = 1 << 0
	flagStrictEvidence = 1 << 1
	flagDisableSpread  = 1 << 2

	// fullBuildSentinel in the header's dirty-shard field marks a snapshot
	// written whole (WriteSnapshot) rather than by a refresh.
	fullBuildSentinel = ^uint32(0)
)

// SnapshotMeta is the run metadata a snapshot carries, available from the
// header alone.
type SnapshotMeta struct {
	Variant core.Variant `json:"variant"`
	// Iterations is how many iterations the producing run actually
	// executed (a tolerance can stop it early); IterationBudget is the
	// configured ceiling, which is what a refresh must run dirty shards
	// under — a heavily-churned shard may legitimately need more
	// iterations than the converged previous generation used.
	Iterations      int                `json:"iterations"`
	IterationBudget int                `json:"iteration_budget"`
	C1              float64            `json:"c1"`
	C2              float64            `json:"c2"`
	Converged       bool               `json:"converged"`
	StrictEvidence  bool               `json:"strict_evidence,omitempty"`
	DisableSpread   bool               `json:"disable_spread,omitempty"`
	Channel         core.WeightChannel `json:"channel"`
	EvidenceForm    core.EvidenceForm  `json:"evidence_form"`
	PruneEpsilon    float64            `json:"prune_epsilon"`
	Tolerance       float64            `json:"tolerance"`
	DeltaSkipTol    float64            `json:"delta_skip_tolerance"`
	NumQueries      int                `json:"queries"`
	NumAds          int                `json:"ads"`
	// Shards is the number of score segments; 1 for a monolithic run.
	Shards int `json:"shards"`
	// QueryPairs and AdPairs are the total stored pair counts across all
	// shards (recorded in the header, so stats never force a segment load).
	QueryPairs int64 `json:"query_pairs"`
	AdPairs    int64 `json:"ad_pairs"`
	// GeneratedAt is when the snapshot was written — the generation marker
	// an operator checks after a SIGHUP reload.
	GeneratedAt time.Time `json:"generated_at"`
	// LastRefreshDirty is how many shards the refresh that wrote this
	// snapshot recomputed, or -1 for a full (non-incremental) build.
	LastRefreshDirty int `json:"last_refresh_dirty_shards"`
	// Fingerprint is the XOR of every shard's subgraph fingerprint — a
	// whole-generation identity, printed hex for /stats.
	Fingerprint string `json:"fingerprint"`
	// RewriteTopK is the depth of the precomputed per-query rewrite lists
	// (0 when the snapshot carries no top-k section); RewriteTopN is the
	// candidate-pool size those lists were filtered from — a serving
	// pipeline whose effective pool differs must fall back to live
	// scoring for byte-identity.
	RewriteTopK int `json:"rewrite_topk"`
	RewriteTopN int `json:"rewrite_topn,omitempty"`
	// RewriteBidHash is the order-independent hash of the bid-term set
	// the lists were filtered with (0 = no bid filtering); a server
	// configured with different terms must not serve the section.
	RewriteBidHash uint64 `json:"-"`
	// RewriteBidFiltered reports whether the section was built under a
	// bid-term filter (the /stats-visible face of RewriteBidHash).
	RewriteBidFiltered bool `json:"rewrite_bid_filtered,omitempty"`
}

// snapshotSources decomposes a result into per-shard score sets: the
// retained shard outputs of a RunSharded(..., RetainShardScores) run, or
// the stitched frontiers as one identity shard (nil id lists).
func snapshotSources(res *core.Result) []core.ShardScoreSet {
	if len(res.ShardScores) > 0 {
		return res.ShardScores
	}
	return []core.ShardScoreSet{{QueryScores: res.QueryScores, AdScores: res.AdScores}}
}

// encodeSegment writes one compacted pair frontier out as the sorted
// binary record stream, remapping ids through the ascending local→global
// map when given. Row-major frontier order is segment order — a monotone
// map keeps rows, and columns within a row, ascending — so nothing sorts.
func encodeSegment(f *sparse.PairFrontier, ids []int) []byte {
	buf := make([]byte, 0, f.Len()*pairRecordSize)
	f.Range(func(i, j int, v float64) bool {
		if ids != nil {
			i, j = ids[i], ids[j]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		return true
	})
	return buf
}

// shardPayload is one shard's encoded segments plus its directory
// metadata, ready for assembly. RefreshSnapshot fills it by byte-copying
// a previous snapshot; WriteSnapshot by encoding frontiers.
type shardPayload struct {
	qSeg, aSeg []byte
	qCRC, aCRC uint32
	fp         uint64
	// tkBlob is the shard's precomputed top-k rewrite blob (empty when
	// the snapshot carries no section).
	tkBlob []byte
	tkCRC  uint32
	// qIDs/aIDs are the shard's global node ids for the route section
	// (nil means identity — the single-shard monolithic case).
	qIDs, aIDs []int
}

// genInfo is the generation metadata stamped into the header.
type genInfo struct {
	iterations  int
	converged   bool
	generatedAt time.Time
	// dirtyShards is how many shards the producing refresh recomputed;
	// fullBuildSentinel for a from-scratch write.
	dirtyShards uint32
}

// shardFingerprints extracts per-shard fingerprints from a sharded run's
// stats (plan order, matching ShardScores), or computes the whole-graph
// fingerprint for a monolithic result.
func shardFingerprints(res *core.Result, shards int) ([]uint64, error) {
	if shards == 1 && len(res.ShardScores) == 0 {
		return []uint64{partition.GraphFingerprint(res.Graph)}, nil
	}
	if len(res.ShardStats) != shards {
		return nil, fmt.Errorf("serve: result has %d shard stats for %d segments; snapshots need RunSharded results (or a monolithic run)",
			len(res.ShardStats), shards)
	}
	fps := make([]uint64, shards)
	for i := range fps {
		fps[i] = res.ShardStats[i].Fingerprint
	}
	return fps, nil
}

// WriteSnapshot serializes res in the snapshot format, including a
// precomputed rewrite section at the default depth (see TopKOptions;
// use WriteSnapshotTopK to tune or disable it). A result carrying
// retained shard scores (core.ShardOptions.RetainShardScores) writes one
// segment pair per shard, encoded in parallel directly from the shard
// engines' local frontiers; any other result writes a single segment pair.
// Results of a partial (ShardOptions.RunShards) run are rejected — their
// missing shards can only be completed by RefreshSnapshot.
func WriteSnapshot(w io.Writer, res *core.Result) error {
	return WriteSnapshotTopK(w, res, DefaultTopKOptions())
}

// WriteSnapshotTopK is WriteSnapshot with an explicit precomputed
// rewrite-section configuration.
func WriteSnapshotTopK(w io.Writer, res *core.Result, opts TopKOptions) error {
	srcs := snapshotSources(res)
	fps, err := shardFingerprints(res, len(srcs))
	if err != nil {
		return err
	}
	payloads := make([]shardPayload, len(srcs))
	for i := range srcs {
		if srcs[i].QueryScores == nil || srcs[i].AdScores == nil {
			return fmt.Errorf("serve: shard %d has no scores (partial refresh run?); use RefreshSnapshot", i)
		}
		payloads[i].qIDs, payloads[i].aIDs = srcs[i].QueryIDs, srcs[i].AdIDs
		payloads[i].fp = fps[i]
	}

	all := make([]int, len(srcs))
	for i := range all {
		all[i] = i
	}
	encodePayloads(payloads, all, srcs)
	tk := opts.meta()
	if err := fillTopKBlobs(payloads, all, res, tk, opts.BidTerms); err != nil {
		return err
	}

	return writeAssembled(w, res, res.Config, payloads, genInfo{
		iterations:  res.Iterations,
		converged:   res.Converged,
		generatedAt: time.Now(),
		dirtyShards: fullBuildSentinel,
	}, tk)
}

// encodePayloads fills the given payload indices' segments and CRCs from
// their score frontiers, one encoder per shard on a bounded pool — the
// parallel encode both WriteSnapshot (every shard) and RefreshSnapshot
// (dirty shards only) run.
func encodePayloads(payloads []shardPayload, idx []int, scores []core.ShardScoreSet) {
	parallelFor(len(idx), func(k int) {
		p := &payloads[idx[k]]
		p.qSeg = encodeSegment(scores[idx[k]].QueryScores, p.qIDs)
		p.aSeg = encodeSegment(scores[idx[k]].AdScores, p.aIDs)
		p.qCRC = crc32.ChecksumIEEE(p.qSeg)
		p.aCRC = crc32.ChecksumIEEE(p.aSeg)
	})
}

// parallelFor runs fn(0..n-1) on a GOMAXPROCS-bounded pool and waits: the
// per-shard fan-out of the segment encoder, the top-k builder and
// PreloadAll. fn must confine its writes to its own index.
func parallelFor(n int, fn func(k int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
}

// nodeNames is the naming surface writeAssembled reads — the graph
// dimensions plus id→name lookups. Both *core.Result and
// *clickgraph.Graph satisfy it, which is what lets a distributed refresh
// (which has a graph and pre-encoded segments, but no stitched Result)
// assemble the same bytes the local path writes.
type nodeNames interface {
	NumQueries() int
	NumAds() int
	Query(id int) string
	Ad(id int) string
}

// topkMeta is the precomputed rewrite section's header parameters: list
// depth k, the candidate-pool size the lists were filtered from, and the
// bid-term-set hash. A zero k means no section (every blob empty).
type topkMeta struct {
	k, topN uint32
	bidHash uint64
}

// writeAssembled lays out and writes a complete snapshot from per-shard
// payloads: string table and route map from the names source, directory
// and header from the payloads, cfg, gen and the top-k section
// parameters.
func writeAssembled(w io.Writer, names nodeNames, cfg core.Config, payloads []shardPayload, gen genInfo, tk topkMeta) error {
	nq, na := names.NumQueries(), names.NumAds()
	if len(payloads) > 1<<30 || uint64(nq) > math.MaxUint32 || uint64(na) > math.MaxUint32 {
		return fmt.Errorf("serve: snapshot dimensions overflow uint32")
	}

	// String table: length-prefixed names, queries then ads.
	var strBuf []byte
	var lenScratch [binary.MaxVarintLen64]byte
	appendName := func(s string) {
		n := binary.PutUvarint(lenScratch[:], uint64(len(s)))
		strBuf = append(strBuf, lenScratch[:n]...)
		strBuf = append(strBuf, s...)
	}
	for q := 0; q < nq; q++ {
		appendName(names.Query(q))
	}
	for a := 0; a < na; a++ {
		appendName(names.Ad(a))
	}

	// Route section: node → shard, from the shard id lists.
	route := make([]byte, 4*(nq+na))
	for si := range payloads {
		for _, q := range payloads[si].qIDs {
			binary.LittleEndian.PutUint32(route[4*q:], uint32(si))
		}
		for _, a := range payloads[si].aIDs {
			binary.LittleEndian.PutUint32(route[4*(nq+a):], uint32(si))
		}
	}

	// Directory + totals; segment offsets follow header/strings/route/dir,
	// and the top-k blobs follow every shard's segments.
	stringsOff := uint64(headerSize)
	routeOff := stringsOff + uint64(len(strBuf))
	dirOff := routeOff + uint64(len(route))
	segOff := dirOff + uint64(dirEntrySize*len(payloads))
	dir := make([]byte, dirEntrySize*len(payloads))
	var totalQ, totalA uint64
	for i := range payloads {
		o := i * dirEntrySize
		qPairs := uint64(len(payloads[i].qSeg) / pairRecordSize)
		aPairs := uint64(len(payloads[i].aSeg) / pairRecordSize)
		binary.LittleEndian.PutUint64(dir[o:], segOff)
		segOff += uint64(len(payloads[i].qSeg))
		binary.LittleEndian.PutUint64(dir[o+8:], segOff)
		segOff += uint64(len(payloads[i].aSeg))
		binary.LittleEndian.PutUint64(dir[o+16:], qPairs)
		binary.LittleEndian.PutUint64(dir[o+24:], aPairs)
		binary.LittleEndian.PutUint32(dir[o+32:], payloads[i].qCRC)
		binary.LittleEndian.PutUint32(dir[o+36:], payloads[i].aCRC)
		binary.LittleEndian.PutUint64(dir[o+40:], payloads[i].fp)
		totalQ += qPairs
		totalA += aPairs
	}
	for i := range payloads {
		if err := checkTopKBlobLen(len(payloads[i].tkBlob)); err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
		o := i * dirEntrySize
		binary.LittleEndian.PutUint64(dir[o+48:], segOff)
		binary.LittleEndian.PutUint32(dir[o+56:], uint32(len(payloads[i].tkBlob)))
		binary.LittleEndian.PutUint32(dir[o+60:], payloads[i].tkCRC)
		segOff += uint64(len(payloads[i].tkBlob))
	}

	hdr := make([]byte, headerSize)
	copy(hdr, snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:], snapshotVersion)
	var flags uint32
	if gen.converged {
		flags |= flagConverged
	}
	if cfg.StrictEvidence {
		flags |= flagStrictEvidence
	}
	if cfg.DisableSpread {
		flags |= flagDisableSpread
	}
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(cfg.Variant))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(gen.iterations))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(cfg.C1))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(cfg.C2))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(nq))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(na))
	binary.LittleEndian.PutUint32(hdr[48:], uint32(len(payloads)))
	binary.LittleEndian.PutUint32(hdr[52:], crc32.ChecksumIEEE(strBuf))
	binary.LittleEndian.PutUint64(hdr[56:], totalQ)
	binary.LittleEndian.PutUint64(hdr[64:], totalA)
	binary.LittleEndian.PutUint64(hdr[72:], stringsOff)
	binary.LittleEndian.PutUint64(hdr[80:], uint64(len(strBuf)))
	binary.LittleEndian.PutUint64(hdr[88:], routeOff)
	binary.LittleEndian.PutUint64(hdr[96:], uint64(len(route)))
	binary.LittleEndian.PutUint64(hdr[104:], dirOff)
	binary.LittleEndian.PutUint64(hdr[112:], uint64(len(dir)))
	binary.LittleEndian.PutUint32(hdr[120:], crc32.ChecksumIEEE(route))
	binary.LittleEndian.PutUint32(hdr[124:], crc32.ChecksumIEEE(dir))
	binary.LittleEndian.PutUint64(hdr[128:], uint64(gen.generatedAt.Unix()))
	binary.LittleEndian.PutUint32(hdr[136:], gen.dirtyShards)
	binary.LittleEndian.PutUint32(hdr[140:], uint32(cfg.Channel))
	binary.LittleEndian.PutUint32(hdr[144:], uint32(cfg.EvidenceForm))
	binary.LittleEndian.PutUint64(hdr[148:], math.Float64bits(cfg.PruneEpsilon))
	binary.LittleEndian.PutUint64(hdr[156:], math.Float64bits(cfg.Tolerance))
	binary.LittleEndian.PutUint64(hdr[164:], math.Float64bits(cfg.DeltaSkipTolerance))
	binary.LittleEndian.PutUint32(hdr[172:], uint32(cfg.Iterations))
	binary.LittleEndian.PutUint32(hdr[176:], tk.k)
	binary.LittleEndian.PutUint32(hdr[180:], tk.topN)
	binary.LittleEndian.PutUint64(hdr[184:], tk.bidHash)
	binary.LittleEndian.PutUint32(hdr[192:], 0) // reserved
	binary.LittleEndian.PutUint32(hdr[196:], crc32.ChecksumIEEE(hdr[:196]))

	for _, b := range [][]byte{hdr, strBuf, route, dir} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	for i := range payloads {
		if _, err := w.Write(payloads[i].qSeg); err != nil {
			return err
		}
		if _, err := w.Write(payloads[i].aSeg); err != nil {
			return err
		}
	}
	for i := range payloads {
		if _, err := w.Write(payloads[i].tkBlob); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshotFile writes the snapshot to a temporary file in path's
// directory and renames it into place, so a server reloading on SIGHUP
// never observes a half-written snapshot.
func WriteSnapshotFile(path string, res *core.Result) error {
	return WriteSnapshotFileTopK(path, res, DefaultTopKOptions())
}

// WriteSnapshotFileTopK is WriteSnapshotFile with an explicit
// precomputed rewrite-section configuration.
func WriteSnapshotFileTopK(path string, res *core.Result, opts TopKOptions) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshotTopK(tmp, res, opts); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

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

// Quarantine backoff policy: first failure waits backoffBase, each
// further failure doubles it up to backoffMax.
const (
	defaultBackoffBase = time.Second
	defaultBackoffMax  = time.Minute
)

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

// Snapshot is a loaded snapshot file implementing ScoreIndex. Opening
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
	queryID      map[string]int
	adID         map[string]int
	qRoute       []uint32
	aRoute       []uint32
	dir          []segEntry
	shards       []snapShard
	// loaded counts successfully materialized segments; atomic because
	// stats readers race with lazy loads under the per-segment locks.
	loaded atomic.Int32

	// Quarantine policy for failed segment loads; now is a clock hook so
	// chaos tests can step through backoff windows deterministically, and
	// jitter (equal-jitter: wait spread over [backoff/2, backoff]) keeps
	// simultaneously-quarantined shards from retrying in lockstep and
	// hammering the disk together. jitter() must return a value in [0,1];
	// 1 reproduces the undithered exponential schedule.
	backoffBase, backoffMax time.Duration
	now                     func() time.Time
	jitter                  func() float64

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
	if string(hdr[:8]) != snapshotMagic {
		return nil, fmt.Errorf("serve: bad snapshot magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != snapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	if got, want := crc32.ChecksumIEEE(hdr[:196]), binary.LittleEndian.Uint32(hdr[196:]); got != want {
		return nil, fmt.Errorf("serve: snapshot header checksum mismatch (corrupt header)")
	}

	flags := binary.LittleEndian.Uint32(hdr[12:])
	s := &Snapshot{
		r: r, size: size, mapped: mapped,
		backoffBase: defaultBackoffBase,
		backoffMax:  defaultBackoffMax,
		now:         time.Now,
		jitter:      rand.Float64,
	}
	s.meta = SnapshotMeta{
		Variant:         core.Variant(binary.LittleEndian.Uint32(hdr[16:])),
		Iterations:      int(binary.LittleEndian.Uint32(hdr[20:])),
		IterationBudget: int(binary.LittleEndian.Uint32(hdr[172:])),
		C1:              math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:])),
		C2:              math.Float64frombits(binary.LittleEndian.Uint64(hdr[32:])),
		Converged:       flags&flagConverged != 0,
		StrictEvidence:  flags&flagStrictEvidence != 0,
		DisableSpread:   flags&flagDisableSpread != 0,
		Channel:         core.WeightChannel(binary.LittleEndian.Uint32(hdr[140:])),
		EvidenceForm:    core.EvidenceForm(binary.LittleEndian.Uint32(hdr[144:])),
		PruneEpsilon:    math.Float64frombits(binary.LittleEndian.Uint64(hdr[148:])),
		Tolerance:       math.Float64frombits(binary.LittleEndian.Uint64(hdr[156:])),
		DeltaSkipTol:    math.Float64frombits(binary.LittleEndian.Uint64(hdr[164:])),
		NumQueries:      int(binary.LittleEndian.Uint32(hdr[40:])),
		NumAds:          int(binary.LittleEndian.Uint32(hdr[44:])),
		Shards:          int(binary.LittleEndian.Uint32(hdr[48:])),
		QueryPairs:      int64(binary.LittleEndian.Uint64(hdr[56:])),
		AdPairs:         int64(binary.LittleEndian.Uint64(hdr[64:])),
		GeneratedAt:     time.Unix(int64(binary.LittleEndian.Uint64(hdr[128:])), 0).UTC(),
	}
	if d := binary.LittleEndian.Uint32(hdr[136:]); d == fullBuildSentinel {
		s.meta.LastRefreshDirty = -1
	} else {
		s.meta.LastRefreshDirty = int(d)
	}
	s.meta.RewriteTopK = int(binary.LittleEndian.Uint32(hdr[176:]))
	s.meta.RewriteTopN = int(binary.LittleEndian.Uint32(hdr[180:]))
	s.meta.RewriteBidHash = binary.LittleEndian.Uint64(hdr[184:])
	s.meta.RewriteBidFiltered = s.meta.RewriteBidHash != 0
	stringsOff := binary.LittleEndian.Uint64(hdr[72:])
	stringsLen := binary.LittleEndian.Uint64(hdr[80:])
	routeOff := binary.LittleEndian.Uint64(hdr[88:])
	routeLen := binary.LittleEndian.Uint64(hdr[96:])
	dirOff := binary.LittleEndian.Uint64(hdr[104:])
	dirLen := binary.LittleEndian.Uint64(hdr[112:])

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

	strBuf, err := s.region("string table", stringsOff, stringsLen, binary.LittleEndian.Uint32(hdr[52:]))
	if err != nil {
		return nil, err
	}
	route, err := s.region("route map", routeOff, routeLen, binary.LittleEndian.Uint32(hdr[120:]))
	if err != nil {
		return nil, err
	}
	dirBuf, err := s.region("shard directory", dirOff, dirLen, binary.LittleEndian.Uint32(hdr[124:]))
	if err != nil {
		return nil, err
	}

	s.queries = make([]string, nq)
	s.ads = make([]string, na)
	s.queryID = make(map[string]int, nq)
	s.adID = make(map[string]int, na)
	// Intern the whole table once: every name is a substring of one
	// backing string, so decoding costs one allocation total (not one
	// per name) and lookups never re-touch the raw section. The copy
	// also detaches names from mapped memory, keeping them valid past
	// Close.
	interned := string(strBuf)
	pos := 0
	readName := func() (string, error) {
		n, used := binary.Uvarint(strBuf[pos:])
		if used <= 0 || n > uint64(len(strBuf)) || pos+used+int(n) > len(strBuf) {
			return "", fmt.Errorf("serve: string table truncated at byte %d", pos)
		}
		name := interned[pos+used : pos+used+int(n)]
		pos += used + int(n)
		return name, nil
	}
	for q := 0; q < nq; q++ {
		if s.queries[q], err = readName(); err != nil {
			return nil, err
		}
		s.queryID[s.queries[q]] = q
	}
	for a := 0; a < na; a++ {
		if s.ads[a], err = readName(); err != nil {
			return nil, err
		}
		s.adID[s.ads[a]] = a
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
	var genFP uint64
	for i := range s.dir {
		o := i * dirEntrySize
		s.dir[i] = segEntry{
			qOff:   binary.LittleEndian.Uint64(dirBuf[o:]),
			aOff:   binary.LittleEndian.Uint64(dirBuf[o+8:]),
			qPairs: binary.LittleEndian.Uint64(dirBuf[o+16:]),
			aPairs: binary.LittleEndian.Uint64(dirBuf[o+24:]),
			qCRC:   binary.LittleEndian.Uint32(dirBuf[o+32:]),
			aCRC:   binary.LittleEndian.Uint32(dirBuf[o+36:]),
			fp:     binary.LittleEndian.Uint64(dirBuf[o+40:]),
			tkOff:  binary.LittleEndian.Uint64(dirBuf[o+48:]),
			tkLen:  uint64(binary.LittleEndian.Uint32(dirBuf[o+56:])),
			tkCRC:  binary.LittleEndian.Uint32(dirBuf[o+60:]),
		}
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
// segLoad serves from and what RefreshSnapshot byte-copies for clean
// shards.
func (s *Snapshot) segmentBytes(side string, si int) ([]byte, error) {
	e := &s.dir[si]
	off, length, crc := e.tkOff, e.tkLen, e.tkCRC
	if side != "topk" {
		pairs := e.qPairs
		off, crc = e.qOff, e.qCRC
		if side == "ad" {
			off, pairs, crc = e.aOff, e.aPairs, e.aCRC
		}
		// Bound pairs before multiplying, so the byte length cannot wrap.
		if pairs > uint64(s.size)/pairRecordSize {
			return nil, fmt.Errorf("serve: shard %d %s segment claims %d pairs, more than the snapshot holds (%d bytes)",
				si, side, pairs, s.size)
		}
		length = pairs * pairRecordSize
	}
	return s.region(fmt.Sprintf("shard %d %s segment", si, side), off, length, crc)
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
		backoff := s.backoffBase << (st.failures - 1)
		if backoff > s.backoffMax || backoff <= 0 {
			backoff = s.backoffMax
		}
		half := backoff / 2
		backoff = half + time.Duration(s.jitter()*float64(backoff-half))
		st.retryAt = s.now().Add(backoff)
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

// SetQuarantineBackoff overrides the capped exponential backoff applied
// to failed segment loads (defaults: 1s base, 1m cap). Chaos tests also
// use it to shrink waits.
func (s *Snapshot) SetQuarantineBackoff(base, max time.Duration) {
	if base > 0 {
		s.backoffBase = base
	}
	if max > 0 {
		s.backoffMax = max
	}
}

// SetQuarantineJitter overrides the jitter source for quarantine backoff.
// f must return values in [0, 1]: the wait becomes
// backoff/2 + f()·backoff/2, so f = rand.Float64 (the default) spreads
// retries over half the window and a constant 1 restores the exact
// deterministic schedule (what the chaos tests pin).
func (s *Snapshot) SetQuarantineJitter(f func() float64) {
	if f != nil {
		s.jitter = f
	}
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
	parallelFor(len(s.shards), func(i int) {
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
	id, ok := s.queryID[name]
	return id, ok
}

// AdID implements ScoreIndex.
func (s *Snapshot) AdID(name string) (int, bool) {
	id, ok := s.adID[name]
	return id, ok
}

// QuerySim implements ScoreIndex: 1 on the diagonal, 0 across shards
// (sharded runs never score cross-shard pairs), the stored score within
// one, binary-searched in the segment bytes.
func (s *Snapshot) QuerySim(q1, q2 int) float64 {
	if q1 == q2 {
		return 1
	}
	if s.qRoute[q1] != s.qRoute[q2] {
		return 0
	}
	v, err := s.queryView(int(s.qRoute[q1]))
	if err != nil {
		return 0
	}
	score, _ := v.find(q1, q2)
	return score
}

// AdSim implements ScoreIndex.
func (s *Snapshot) AdSim(a1, a2 int) float64 {
	if a1 == a2 {
		return 1
	}
	if s.aRoute[a1] != s.aRoute[a2] {
		return 0
	}
	v, err := s.adView(int(s.aRoute[a1]))
	if err != nil {
		return 0
	}
	score, _ := v.find(a1, a2)
	return score
}

// topRewrites is TopRewrites returning load errors: the shared core of
// the ScoreIndex surface and the deadline-aware variant.
func (s *Snapshot) topRewrites(q, k int) ([]sparse.Scored, error) {
	v, err := s.queryView(int(s.qRoute[q]))
	if err != nil {
		return nil, err
	}
	return v.topKFor(q, k), nil
}

// TopRewrites implements ScoreIndex: it routes q to its shard's query
// segment and answers from that segment alone.
func (s *Snapshot) TopRewrites(q, k int) []sparse.Scored {
	out, err := s.topRewrites(q, k)
	if err != nil {
		return nil
	}
	return out
}

// TopRewritesContext is TopRewrites under a request deadline: an
// already-expired context returns before triggering a lazy segment load
// (the one potentially slow step on this path), and a load failure is
// surfaced as an error instead of an indistinguishable empty ranking.
func (s *Snapshot) TopRewritesContext(ctx context.Context, q, k int) ([]sparse.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := s.topRewrites(q, k)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// TopSimilarAds implements ScoreIndex.
func (s *Snapshot) TopSimilarAds(a, k int) []sparse.Scored {
	v, err := s.adView(int(s.aRoute[a]))
	if err != nil {
		return nil
	}
	return v.topKFor(a, k)
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
	id, ok = s.queryID[name]
	if !ok {
		return 0, 0, false
	}
	return id, int(s.qRoute[id]), true
}

// PrevAd implements partition.PrevAssignment.
func (s *Snapshot) PrevAd(name string) (id, shard int, ok bool) {
	id, ok = s.adID[name]
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
		DisableSpread:      s.meta.DisableSpread,
		StrictEvidence:     s.meta.StrictEvidence,
		PruneEpsilon:       s.meta.PruneEpsilon,
		DeltaSkipTolerance: s.meta.DeltaSkipTol,
	}
}
