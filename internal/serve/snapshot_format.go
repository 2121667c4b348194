package serve

import (
	"time"

	"simrankpp/internal/core"
)

// The snapshot is the batch→online handoff of Figure 2 in binary form
// (written by snapshot_write.go, served by snapshot_read.go): a
// versioned file a sharded run writes once and a server opens in
// O(header + string table), routing each query to its shard's score
// segment without ever materializing the other shards.
//
// Layout (all integers little-endian):
//
//	header    a fixed 200-byte internal/frame frame: magic, version, run
//	          metadata (variant, iterations executed and budgeted,
//	          C1/C2, converged, strict-evidence/spread flags, weight
//	          channel, evidence form, prune epsilon, convergence and
//	          delta-skip tolerances), graph dimensions, shard count,
//	          generation info (creation time, dirty-shard count of the
//	          refresh that produced it), section offsets/lengths,
//	          per-section CRC32s, and the precomputed rewrite section's
//	          parameters (k, candidate pool, bid-term hash).
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
//	          (Refresh) — plus the offset/length/CRC32 of the
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
	// written whole (WriteSnapshotTopK) rather than by a refresh.
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
	// Shards is the number of score segments; 1 for a partition.WholePlan
	// run.
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
