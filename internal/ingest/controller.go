package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/hedge"
	"simrankpp/internal/serve"
)

// Config parameterizes a Controller.
type Config struct {
	// WALDir holds the WAL segments and the fold-state file. Required.
	WALDir string
	// SnapshotPath is the serving snapshot the generation journal fronts
	// (the same path simrankd serves and simrank -refresh targets).
	// Required.
	SnapshotPath string
	// GraphPath is the base click-graph file, read on FIRST start only
	// (no fold state yet): it must be the graph the serving snapshot was
	// built from, so fold zero starts from the exact interned ids the
	// snapshot's shard fingerprints assume. Later starts recover the
	// graph from the fold state instead.
	GraphPath string
	// BaseGraph, when non-nil, is used instead of reading GraphPath —
	// the in-process form of the same contract (tests, embedding).
	BaseGraph *clickgraph.Graph

	// Workers bounds the refresh shard pool (<= 0: GOMAXPROCS).
	Workers int
	// Cadence is the fold interval (default 30s).
	Cadence time.Duration
	// ChurnRecords kicks a fold early once this many records are
	// pending, without waiting out the cadence. 0 disables.
	ChurnRecords uint64
	// MaxLagRecords bounds WAL lag: Ingest rejects a batch that would take
	// the lag beyond it with ErrBackpressure, and one larger than it with
	// ErrBatchTooLarge (see LogOptions.MaxLagRecords). 0 disables.
	MaxLagRecords uint64
	// Bids is the bid-term set the snapshot's precomputed rewrite
	// section was built under (serve.Refresh rebuilds dirty shards' lists
	// with it and refuses another set); nil when the snapshot carries no
	// section.
	Bids map[string]bool

	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)
	// Now is the gauge clock (nil: time.Now). Tests pin it.
	Now func() time.Time
	// Checkpoint, when non-nil, is called at every named stage of a fold
	// ("fold:start", "fold:built", then serve.Refresh's four stages
	// prefixed "fold:" — "fold:pre-commit", "fold:commit:mid-write",
	// "fold:pre-publish", "fold:post-publish" — and "fold:post-cursor");
	// returning an error aborts the fold there — the crash-injection
	// hook the chaos tests drive, mirroring the generation store's own
	// failAt discipline.
	Checkpoint func(stage string) error
	// OnPublish runs after a fold publishes a generation (and after the
	// fold cursor is durable) — the daemon reloads its serving index
	// here. Called on the fold goroutine; keep it quick.
	OnPublish func(gen *serve.Generation)
}

// FoldResult reports what one FoldOnce did.
type FoldResult struct {
	// Replayed is how many WAL records this fold newly applied to the
	// delta buffer; Pending is the total folded ahead of the previous
	// durable cursor (replayed now plus records applied by earlier
	// failed attempts and retained in memory).
	Replayed, Pending uint64
	// Skipped reports a zero-dirty fold: the rebuilt graph fingerprints
	// identically to the serving generation shard for shard, so nothing
	// was recomputed or published — only the cursor advanced. This is
	// also how a crash between publish and cursor-save converges on
	// replay: exactly-once by fingerprint, not by luck.
	Skipped bool
	// GenID is the published generation (0 when Skipped).
	GenID uint64
	// Stats is the snapshot write's dirty/clean split (zero when Skipped).
	Stats serve.RefreshStats
	// Duration is the fold's wall time.
	Duration time.Duration
}

// Stats is the controller's gauge block, surfaced through /stats (and,
// with Degraded, /readyz) via Status.
type Stats struct {
	// WALRecords is the next WAL sequence number (records ever appended,
	// including truncated ones); FoldCursor the durable fold cursor;
	// WALLagRecords their difference — how many appended records the
	// published generation does not yet reflect.
	WALRecords    uint64 `json:"wal_records"`
	FoldCursor    uint64 `json:"fold_cursor"`
	WALLagRecords uint64 `json:"wal_lag_records"`
	WALSegments   int    `json:"wal_segments"`
	// LastFoldAgeSeconds is the time since the last successful fold
	// (since start-up if none yet); StalenessSeconds is how long the
	// oldest unfolded record has been waiting — 0 when nothing is
	// pending. Bounded staleness means StalenessSeconds stays near the
	// cadence; it rising with RefreshFailures is the degraded signature.
	LastFoldAgeSeconds float64 `json:"last_fold_age_seconds"`
	StalenessSeconds   float64 `json:"staleness_seconds"`
	// Folds counts successful folds (SkippedFolds of them zero-dirty);
	// RefreshFailures counts failed fold attempts;
	// BackpressureRejects counts Ingest calls bounced at MaxLagRecords.
	Folds               int64 `json:"folds"`
	SkippedFolds        int64 `json:"skipped_folds"`
	RefreshFailures     int64 `json:"refresh_failures"`
	BackpressureRejects int64 `json:"backpressure_rejects"`
	// LastGeneration is the newest generation this controller published.
	LastGeneration uint64 `json:"last_generation,omitempty"`
	Degraded       bool   `json:"degraded"`
	LastError      string `json:"last_error,omitempty"`
}

// Controller is the continuous-refresh loop: it owns the WAL, the delta
// buffer (a long-lived clickgraph.Builder — AddEdge's merge semantics
// ARE the fold semantics: impressions and clicks sum, rates merge as an
// impressions-weighted mean), the fold cursor, and the generation
// journal writer lock. One controller per snapshot; the advisory lock
// enforces it against concurrent CLI refreshes too.
type Controller struct {
	cfg     Config
	log     *Log
	gs      *serve.GenerationStore
	release func() error
	// backoff schedules fold retries after a refresh failure (capped
	// equal-jitter, hedge.Backoff's defaults). Tests replace it after
	// NewController.
	backoff hedge.Backoff

	// foldMu serializes folds — overlapping FoldOnce calls (cadence
	// firing during a slow manual fold, a Kick racing the timer) queue
	// rather than interleave journal writes.
	foldMu     sync.Mutex
	builder    *clickgraph.Builder
	applied    uint64 // WAL records below this are in builder (in-memory)
	stateSaved bool   // a fold-state file exists for this builder state

	// mu guards the gauges below. The durable fold cursor is the WAL's
	// (Log.FoldedSeq): SetFolded advances it once the fold state is saved.
	mu              sync.Mutex
	folds           int64
	skippedFolds    int64
	refreshFailures int64
	backpressure    int64
	lastGenID       uint64
	started         time.Time
	lastFold        time.Time
	pendingSince    time.Time // zero when nothing is pending
	degraded        bool
	lastErr         string

	kick chan struct{}
}

// NewController opens the WAL, takes the journal lock, and restores the
// delta buffer — from the fold state if one exists, else from the base
// graph (Config.BaseGraph / GraphPath). It does not start folding; call
// Run (or FoldOnce) for that.
func NewController(cfg Config) (*Controller, error) {
	if cfg.WALDir == "" {
		return nil, errors.New("ingest: Config.WALDir is required")
	}
	if cfg.SnapshotPath == "" {
		return nil, errors.New("ingest: Config.SnapshotPath is required")
	}
	if cfg.Cadence <= 0 {
		cfg.Cadence = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}

	c := &Controller{cfg: cfg, kick: make(chan struct{}, 1)}
	c.gs = serve.NewGenerationStore(cfg.SnapshotPath)
	release, swept, err := c.gs.Lock()
	if err != nil {
		return nil, err
	}
	c.release = release
	if swept > 0 {
		cfg.Logf("ingest: swept %d stale journal file(s)", swept)
	}
	fail := func(err error) (*Controller, error) {
		release()
		if c.log != nil {
			c.log.Close()
		}
		return nil, err
	}
	if c.log, err = OpenLog(cfg.WALDir, LogOptions{MaxLagRecords: cfg.MaxLagRecords}); err != nil {
		return fail(err)
	}
	if torn := c.log.TornBytesTruncated(); torn > 0 {
		cfg.Logf("ingest: truncated %d torn byte(s) from the WAL tail", torn)
	}
	// A fold-state save a crash cut short left its temp; the journal lock
	// held above makes this controller the directory's one writer.
	swept, err = serve.SweepTemps(cfg.WALDir, func(target string) bool { return target == stateFile })
	if err != nil {
		return fail(err)
	}
	if swept > 0 {
		cfg.Logf("ingest: swept %d stale fold-state temp(s)", swept)
	}

	state, err := LoadFoldState(cfg.WALDir)
	if err != nil {
		return fail(err)
	}
	// The delta buffer adopts the graph, so later Builds keep every node's
	// id: shard fingerprints hash ids, and a clean shard's segment
	// byte-copy assumes identical ids.
	switch {
	case state != nil:
		c.builder = clickgraph.NewBuilderFrom(state.Graph)
		c.applied, c.stateSaved = state.Seq, true
	default:
		// First start. Refuse to guess if the WAL has already dropped
		// records (TruncateBefore ran under a state file that is now
		// gone): replaying the remainder onto the base graph would
		// silently lose the truncated prefix.
		if c.log.FoldedSeq() > 0 {
			return fail(fmt.Errorf("ingest: no fold state but the WAL starts at sequence %d — restore %s or start with a fresh WAL directory", c.log.FoldedSeq(), stateFile))
		}
		base := cfg.BaseGraph
		if base == nil {
			if cfg.GraphPath == "" {
				return fail(errors.New("ingest: first start needs the base graph (Config.GraphPath) the serving snapshot was built from"))
			}
			if base, err = clickgraph.ReadFile(cfg.GraphPath); err != nil {
				return fail(err)
			}
		}
		c.builder = clickgraph.NewBuilderFrom(base)
	}
	// c.applied is the durable cursor here: the fold state's, or 0.
	if c.applied > c.log.NextSeq() {
		// The WAL tail was lost after those records were folded and
		// published — they live on in the fold-state graph. Fast-forward
		// so sequence numbers stay monotone.
		cfg.Logf("ingest: WAL ends at sequence %d but the fold cursor is %d; fast-forwarding (folded records live in the fold state)",
			c.log.NextSeq(), c.applied)
		if err := c.log.AdvanceTo(c.applied); err != nil {
			return fail(err)
		}
	}
	c.log.SetFolded(c.applied)

	now := cfg.Now()
	c.started, c.lastFold = now, now
	if c.log.NextSeq() > c.applied {
		// Pending records of unknown age survive a restart: date their
		// staleness from now — conservative in the cheap direction.
		c.pendingSince = now
	}
	return c, nil
}

// Close releases the journal lock and closes the WAL. It does not stop
// a running Run loop — cancel its context first.
func (c *Controller) Close() error {
	err := c.log.Close()
	if c.release != nil {
		if rerr := c.release(); err == nil {
			err = rerr
		}
		c.release = nil
	}
	return err
}

// Ingest validates, appends and fsyncs recs as one batch (one fsync
// however many records): all of them or none, so a refused batch can be
// retried as it was sent. It returns len(recs) once they are durable.
// ErrBackpressure means the batch would take the WAL more than
// MaxLagRecords ahead of folding — callers surface "retry later";
// ErrBatchTooLarge means it holds more than MaxLagRecords records and
// never fits. Any other error is a failed validation, write or fsync.
// Crossing ChurnRecords kicks the fold loop.
func (c *Controller) Ingest(recs []Record) (int, error) {
	_, err := c.log.Append(recs...)
	if err == nil {
		err = c.log.Sync()
	}
	c.mu.Lock()
	if errors.Is(err, ErrBackpressure) {
		c.backpressure++
	}
	durable := c.log.FoldedSeq()
	if c.pendingSince.IsZero() && c.log.NextSeq() > durable {
		c.pendingSince = c.cfg.Now()
	}
	c.mu.Unlock()
	if c.cfg.ChurnRecords > 0 && c.log.NextSeq()-durable >= c.cfg.ChurnRecords {
		c.Kick()
	}
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// Kick nudges the Run loop to fold now instead of waiting out the
// cadence. No-op if a kick is already pending or nothing is listening.
func (c *Controller) Kick() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Run folds on the cadence (or on Kick) until ctx is cancelled. A
// failed fold flips the controller degraded and retries on the capped
// equal-jitter backoff schedule — kicks are ignored while backing off,
// so a churn storm cannot defeat the backoff. The serving side keeps
// answering from the last good generation throughout.
func (c *Controller) Run(ctx context.Context) error {
	attempt, wait := 0, c.cfg.Cadence
	for {
		timer := time.NewTimer(wait)
		if attempt == 0 {
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			case <-c.kick:
				timer.Stop()
			}
		} else {
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
		if _, err := c.FoldOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			attempt++
			wait = c.backoff.Delay(attempt)
			c.cfg.Logf("ingest: fold failed (attempt %d, retrying in %v): %v", attempt, wait, err)
		} else {
			attempt, wait = 0, c.cfg.Cadence
		}
	}
}

// FoldOnce runs one fold: replay pending WAL records into the delta
// buffer, rebuild the graph, refresh the serving snapshot through the
// generation journal (serve.Refresh over the in-process shard pool),
// then durably advance the fold cursor and truncate folded WAL segments.
//
// Failure discipline: any error leaves the durable cursor and the
// serving snapshot untouched (the journal's own crash safety covers the
// commit/publish window), marks the controller degraded, and keeps the
// already-replayed records in the delta buffer — the retry rebuilds the
// graph without re-reading the WAL, so a record is never applied twice
// in memory either. A cancelled ctx aborts between shards and is
// reported as ctx's error without counting as a refresh failure.
func (c *Controller) FoldOnce(ctx context.Context) (*FoldResult, error) {
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	start := c.cfg.Now()
	if err := c.checkpoint("fold:start"); err != nil {
		return nil, c.fail(err)
	}

	var replayed uint64
	if c.log.NextSeq() > c.applied {
		next := c.applied
		err := c.log.Replay(c.applied, func(seq uint64, rec Record) error {
			if aerr := c.builder.AddEdge(rec.Query, rec.Ad, rec.Weights()); aerr != nil {
				return aerr
			}
			replayed++
			next = seq + 1
			return nil
		})
		if err != nil {
			return nil, c.fail(fmt.Errorf("ingest: WAL replay: %w", err))
		}
		c.applied = next
	}
	res := &FoldResult{Replayed: replayed, Pending: c.applied - c.log.FoldedSeq()}
	if res.Pending == 0 && c.stateSaved {
		// Nothing new since the last durable fold: not even a cursor to
		// advance. (Without a state file yet, fall through — the skip
		// path below writes the first one.)
		res.Skipped = true
		c.noteFold(res, start)
		return res, nil
	}

	g := c.builder.Build()
	if err := c.checkpoint("fold:built"); err != nil {
		return nil, c.fail(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rr, err := serve.Refresh(ctx, c.gs, g, c.cfg.Workers, c.cfg.Bids,
		func(stage string) error { return c.checkpoint("fold:" + stage) })
	if rr.Restored != nil {
		c.cfg.Logf("ingest: serving snapshot did not open; restored generation %d", rr.Restored.ID)
	}
	if err != nil {
		if ctx.Err() != nil {
			// Shutdown, not failure: serving bytes and cursor are
			// untouched; the fold re-runs after restart.
			return nil, ctx.Err()
		}
		return nil, c.fail(fmt.Errorf("ingest: %w", err))
	}
	// Nothing published: the rebuilt graph is the serving generation,
	// shard for shard, so only the cursor advances.
	gen := rr.Published
	res.Skipped = gen == nil
	res.Stats = rr.Stats

	// Durable cursor: the single atomic state write that makes replay
	// exactly-once. Crash before it → the published generation already
	// reflects these records, and the next fold's replay rebuilds an
	// id-identical graph whose diff is zero-dirty (see state.go).
	if err := SaveFoldState(c.cfg.WALDir, c.applied, g, nil); err != nil {
		return nil, c.fail(fmt.Errorf("ingest: saving fold cursor: %w", err))
	}
	c.stateSaved = true
	if err := c.checkpoint("fold:post-cursor"); err != nil {
		return nil, c.fail(err)
	}
	c.log.SetFolded(c.applied)
	if err := c.log.TruncateBefore(c.applied); err != nil {
		c.cfg.Logf("ingest: WAL retention: %v", err)
	}
	if _, err := c.gs.Prune(); err != nil {
		c.cfg.Logf("ingest: journal retention: %v", err)
	}

	if gen != nil {
		res.GenID = gen.ID
	}
	c.noteFold(res, start)
	if gen != nil {
		c.cfg.Logf("ingest: fold published generation %d (%d records, %d dirty / %d clean shards, %s)",
			gen.ID, res.Pending, res.Stats.DirtyShards, res.Stats.CleanShards, res.Duration.Round(time.Millisecond))
		if c.cfg.OnPublish != nil {
			c.cfg.OnPublish(gen)
		}
	}
	return res, nil
}

// Stats reports the bounded-staleness gauges.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	// The cursor first: a fold may advance it between the two reads, but
	// never past a sequence number already read, so the lag cannot wrap.
	st := Stats{
		FoldCursor:          c.log.FoldedSeq(),
		WALRecords:          c.log.NextSeq(),
		WALSegments:         c.log.Segments(),
		LastFoldAgeSeconds:  now.Sub(c.lastFold).Seconds(),
		Folds:               c.folds,
		SkippedFolds:        c.skippedFolds,
		RefreshFailures:     c.refreshFailures,
		BackpressureRejects: c.backpressure,
		LastGeneration:      c.lastGenID,
		Degraded:            c.degraded,
		LastError:           c.lastErr,
	}
	st.WALLagRecords = st.WALRecords - st.FoldCursor
	if !c.pendingSince.IsZero() {
		st.StalenessSeconds = now.Sub(c.pendingSince).Seconds()
	}
	return st
}

// Status adapts Stats to the serving surface — wire it into a
// serve.Server with SetIngestStatus so /readyz turns "degraded" and
// /stats carries the gauges while refresh is failing.
func (c *Controller) Status() serve.IngestStatus {
	st := c.Stats()
	return serve.IngestStatus{Degraded: st.Degraded, Reason: st.LastError, Stats: st}
}

// --- internals ---

func (c *Controller) checkpoint(stage string) error {
	if c.cfg.Checkpoint == nil {
		return nil
	}
	return c.cfg.Checkpoint(stage)
}

// fail records a fold failure: degraded until the next success, cursor
// and serving untouched.
func (c *Controller) fail(err error) error {
	c.mu.Lock()
	c.refreshFailures++
	c.degraded = true
	c.lastErr = err.Error()
	if c.pendingSince.IsZero() && c.log.NextSeq() > c.log.FoldedSeq() {
		c.pendingSince = c.cfg.Now()
	}
	c.mu.Unlock()
	return err
}

// noteFold records a successful fold's gauge effects.
func (c *Controller) noteFold(res *FoldResult, start time.Time) {
	res.Duration = c.cfg.Now().Sub(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.folds++
	if res.Skipped {
		c.skippedFolds++
	}
	if res.GenID != 0 {
		c.lastGenID = res.GenID
	}
	c.degraded = false
	c.lastErr = ""
	c.lastFold = c.cfg.Now()
	if c.log.NextSeq() > c.log.FoldedSeq() {
		// Records arrived while this fold ran: the next staleness clock
		// starts now.
		c.pendingSince = c.cfg.Now()
	} else {
		c.pendingSince = time.Time{}
	}
}
