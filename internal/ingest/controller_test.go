package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
	"simrankpp/internal/workload"
)

func testClickCfg() workload.ClickLogConfig {
	return workload.ClickLogConfig{
		Seed: 7, Clusters: 3, QueriesPerCluster: 8, AdsPerCluster: 6,
		BaseEvents: 120, StreamEvents: 120, HotFraction: 0.98,
	}
}

func testRefreshCfg() core.Config {
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.Channel = core.ChannelRate
	cfg.Iterations = 30
	cfg.Tolerance = 1e-9
	cfg.PruneEpsilon = 1e-8
	return cfg
}

// testEnv is a serving snapshot built from the click-log base plus the
// replayable stream the tests feed through the controller.
type testEnv struct {
	dir      string
	snapPath string
	walDir   string
	base     *clickgraph.Graph
	log      workload.ClickLog
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	lc := testClickCfg()
	lg := workload.GenerateClickLog(lc)
	base, err := lc.BaseGraph(lg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "serving.snap")
	plan := partition.ComponentPlan(base)
	res, err := core.RunSharded(base, testRefreshCfg(), plan, core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.WriteSnapshotFileTopK(snapPath, res, serve.TopKOptions{K: serve.DefaultRewriteTopK}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{dir: dir, snapPath: snapPath, walDir: filepath.Join(dir, "wal"), base: base, log: lg}
}

func (e *testEnv) config() Config {
	return Config{
		WALDir:       e.walDir,
		SnapshotPath: e.snapPath,
		BaseGraph:    e.base,
		Cadence:      time.Hour,
	}
}

func (e *testEnv) records(from, to int) []Record {
	recs := make([]Record, 0, to-from)
	for _, ev := range e.log.Stream[from:to] {
		recs = append(recs, Record{
			Query: ev.Query, Ad: ev.Ad,
			Impressions: ev.Impressions, Clicks: ev.Clicks, Rate: ev.Rate,
		})
	}
	return recs
}

func (e *testEnv) servingBytes(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(e.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// failAtBuilt is a Config.Checkpoint that fails the fold at "fold:built"
// with msg while *failing holds.
func failAtBuilt(failing *bool, msg string) func(stage string) error {
	return func(stage string) error {
		if *failing && stage == "fold:built" {
			return errors.New(msg)
		}
		return nil
	}
}

func TestControllerFoldPublishesAndSkips(t *testing.T) {
	env := newTestEnv(t)
	before := env.servingBytes(t)
	c, err := NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if n, err := c.Ingest(env.records(0, 60)); err != nil || n != 60 {
		t.Fatalf("ingest: n=%d err=%v", n, err)
	}
	fr, err := c.FoldOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Skipped || fr.GenID == 0 || fr.Replayed != 60 {
		t.Fatalf("first fold: %+v", fr)
	}
	if fr.Stats.DirtyShards == 0 {
		t.Fatalf("fold with new click mass refreshed no shards: %+v", fr.Stats)
	}
	after := env.servingBytes(t)
	if bytes.Equal(before, after) {
		t.Fatal("fold published but the serving snapshot did not change")
	}
	if _, err := os.Stat(filepath.Join(env.walDir, stateFile)); err != nil {
		t.Fatalf("fold state missing: %v", err)
	}

	// No new records: the fold is a pure skip and serving bytes are
	// untouched, byte for byte.
	fr2, err := c.FoldOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !fr2.Skipped || fr2.Replayed != 0 {
		t.Fatalf("idle fold: %+v", fr2)
	}
	if !bytes.Equal(after, env.servingBytes(t)) {
		t.Fatal("idle fold rewrote the serving snapshot")
	}

	st := c.Stats()
	if st.Folds != 2 || st.SkippedFolds != 1 || st.WALLagRecords != 0 || st.Degraded {
		t.Fatalf("stats: %+v", st)
	}
	if st.FoldCursor != 60 || st.WALRecords != 60 {
		t.Fatalf("cursor gauges: %+v", st)
	}
}

// TestControllerFoldsEqualColdBuild pins what a fold publishes under a
// configuration that stops at a tolerance (testRefreshCfg): after each of
// three publishing folds, the serving file is, outside its header's
// generated-at time, dirty-shard count and CRC, exactly the snapshot a
// cold sharded run of the whole click history writes over the plan the
// fold projected. A fold that seeded its dirty shards from the previous
// generation would stop them elsewhere and fail here.
func TestControllerFoldsEqualColdBuild(t *testing.T) {
	env := newTestEnv(t)
	c, err := NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	history := clickgraph.NewBuilderFrom(env.base)
	for fold, to := range []int{40, 80, 120} {
		from := to - 40
		served := env.servingBytes(t)
		prev, err := serve.NewSnapshot(bytes.NewReader(served), int64(len(served)))
		if err != nil {
			t.Fatal(err)
		}
		recs := env.records(from, to)
		if _, err := c.Ingest(recs); err != nil {
			t.Fatal(err)
		}
		fr, err := c.FoldOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if fr.Skipped || fr.GenID == 0 || fr.Stats.DirtyShards == 0 {
			t.Fatalf("fold %d published nothing: %+v", fold, fr)
		}

		for _, r := range recs {
			if err := history.AddEdge(r.Query, r.Ad, r.Weights()); err != nil {
				t.Fatal(err)
			}
		}
		g := history.Build()
		diff, err := partition.DiffPlans(prev, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunSharded(g, testRefreshCfg(), diff.Plan, core.ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		coldPath := filepath.Join(t.TempDir(), "cold.snap")
		if err := serve.WriteSnapshotFileTopK(coldPath, res, serve.TopKOptions{K: serve.DefaultRewriteTopK}); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(coldPath)
		if err != nil {
			t.Fatal(err)
		}
		got := env.servingBytes(t)
		if len(got) != len(want) {
			t.Fatalf("fold %d served %d bytes, the cold build %d", fold, len(got), len(want))
		}
		// generated-at, last-refresh dirty count, header CRC.
		for _, r := range [][2]int{{128, 136}, {136, 140}, {196, 200}} {
			copy(got[r[0]:r[1]], want[r[0]:r[1]])
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fold %d served a snapshot that differs from the cold build at byte %d of %d", fold, i, len(got))
			}
		}
	}
}

// TestControllerRestartConverges pins crash replay: restarting from the
// fold state (and then again with the state file deleted — the
// duplicate-replay-after-cursor-loss case) must converge to a zero-dirty
// skip without touching a single published byte.
func TestControllerRestartConverges(t *testing.T) {
	env := newTestEnv(t)
	c, err := NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(env.records(0, 80)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FoldOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	published := env.servingBytes(t)

	// Restart from the fold state: nothing pending, nothing changes.
	c, err = NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := c.FoldOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Skipped {
		t.Fatalf("restart fold: %+v", fr)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(published, env.servingBytes(t)) {
		t.Fatal("restart changed serving bytes")
	}

	// Lose the durable cursor (fsynced state file gone — e.g. the disk
	// was restored from before the fold). The controller rebuilds from
	// the base graph, replays the ENTIRE WAL, and the rebuilt graph
	// fingerprints shard-for-shard identical to the published generation:
	// the fold is a zero-dirty skip, not a double apply.
	if err := os.Remove(filepath.Join(env.walDir, stateFile)); err != nil {
		t.Fatal(err)
	}
	c, err = NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fr, err = c.FoldOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Skipped || fr.Replayed != 80 {
		t.Fatalf("replay-after-cursor-loss fold: %+v", fr)
	}
	if !bytes.Equal(published, env.servingBytes(t)) {
		t.Fatal("duplicate replay changed published bytes")
	}
	// And the re-derived cursor is durable again.
	st, err := LoadFoldState(env.walDir)
	if err != nil || st == nil || st.Seq != 80 {
		t.Fatalf("fold state after recovery: %+v, %v", st, err)
	}
}

// TestControllerShutdownMidFold pins satellite (b): a context cancelled
// mid-fold (SIGTERM) abandons the fold cleanly — serving bytes, fold
// state, and WAL cursor all intact, degraded NOT set — and the next
// fold finishes the work.
func TestControllerShutdownMidFold(t *testing.T) {
	env := newTestEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := env.config()
	cfg.Checkpoint = func(stage string) error {
		if stage == "fold:built" {
			cancel() // SIGTERM arrives while the delta graph is being refreshed
		}
		return nil
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := env.servingBytes(t)
	if _, err := c.Ingest(env.records(0, 50)); err != nil {
		t.Fatal(err)
	}
	walBefore := fileSize(activeSegPath(t, env.walDir))

	if _, err := c.FoldOnce(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fold returned %v, want context.Canceled", err)
	}
	if !bytes.Equal(before, env.servingBytes(t)) {
		t.Fatal("cancelled fold changed serving bytes")
	}
	if _, err := os.Stat(filepath.Join(env.walDir, stateFile)); !os.IsNotExist(err) {
		t.Fatalf("cancelled fold wrote a fold state: %v", err)
	}
	if got := fileSize(activeSegPath(t, env.walDir)); got != walBefore {
		t.Fatalf("cancelled fold changed the WAL (%d -> %d bytes)", walBefore, got)
	}
	if st := c.Stats(); st.Degraded || st.RefreshFailures != 0 {
		t.Fatalf("shutdown counted as failure: %+v", st)
	}

	// A fresh context picks the fold back up and publishes.
	fr, err := c.FoldOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Skipped || fr.GenID == 0 || fr.Pending != 50 {
		t.Fatalf("resumed fold: %+v", fr)
	}
	if bytes.Equal(before, env.servingBytes(t)) {
		t.Fatal("resumed fold did not publish")
	}
}

// TestControllerDegradedStatus drives a refresh failure and checks the
// full surface: serving keeps the last good generation, /readyz reports
// degraded (still HTTP 200), /stats carries the ingest gauges, and a
// healed fold clears it all.
func TestControllerDegradedStatus(t *testing.T) {
	env := newTestEnv(t)
	failing := true
	cfg := env.config()
	cfg.Checkpoint = failAtBuilt(&failing, "injected: disk on fire")
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	idx, err := serve.OpenSnapshot(env.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	srv := serve.NewServer(idx, serve.DefaultServerConfig())
	srv.SetIngestStatus(c.Status)
	handler := srv.Handler()

	readyz := func() (code int, body string) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := readyz(); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthy readyz: %d %s", code, body)
	}

	before := env.servingBytes(t)
	if _, err := c.Ingest(env.records(0, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FoldOnce(context.Background()); err == nil {
		t.Fatal("injected failure did not fail the fold")
	}
	if !bytes.Equal(before, env.servingBytes(t)) {
		t.Fatal("failed fold changed serving bytes")
	}
	st := c.Stats()
	if !st.Degraded || st.RefreshFailures != 1 || st.WALLagRecords != 40 {
		t.Fatalf("degraded stats: %+v", st)
	}
	code, body := readyz()
	if code != 200 {
		t.Fatalf("degraded readyz must stay 200 (got %d): the last good generation is still serving", code)
	}
	if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, "disk on fire") {
		t.Fatalf("degraded readyz body: %s", body)
	}

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		Ingest *serve.IngestStatus `json:"ingest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingest == nil || !stats.Ingest.Degraded {
		t.Fatalf("/stats ingest block: %+v", stats.Ingest)
	}
	if !strings.Contains(rec.Body.String(), "wal_lag_records") {
		t.Fatalf("/stats missing ingest gauges: %s", rec.Body.String())
	}

	// Heal: the retry fold publishes and the degraded flag clears.
	failing = false
	fr, err := c.FoldOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Skipped || fr.Pending != 40 {
		t.Fatalf("healed fold: %+v", fr)
	}
	if st := c.Stats(); st.Degraded || st.WALLagRecords != 0 {
		t.Fatalf("stats after heal: %+v", st)
	}
	if _, body := readyz(); !strings.Contains(body, `"ok"`) {
		t.Fatalf("healed readyz: %s", body)
	}
}

// TestControllerStalenessGauges pins the bounded-staleness arithmetic
// under a fake clock.
func TestControllerStalenessGauges(t *testing.T) {
	env := newTestEnv(t)
	now := time.Unix(1_000_000, 0)
	cfg := env.config()
	cfg.Now = func() time.Time { return now }
	failing := false
	cfg.Checkpoint = failAtBuilt(&failing, "injected")
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if st := c.Stats(); st.StalenessSeconds != 0 {
		t.Fatalf("idle staleness: %+v", st)
	}
	if _, err := c.Ingest(env.records(0, 30)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(42 * time.Second)
	if st := c.Stats(); st.StalenessSeconds != 42 {
		t.Fatalf("staleness after 42s pending: %+v", st)
	}

	// A failing refresh lets staleness keep climbing — the degraded
	// signature an operator alerts on.
	failing = true
	if _, err := c.FoldOnce(context.Background()); err == nil {
		t.Fatal("want injected failure")
	}
	now = now.Add(18 * time.Second)
	if st := c.Stats(); st.StalenessSeconds != 60 || !st.Degraded {
		t.Fatalf("staleness under failure: %+v", st)
	}

	failing = false
	if _, err := c.FoldOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.StalenessSeconds != 0 || st.LastFoldAgeSeconds != 0 || st.Degraded {
		t.Fatalf("staleness after fold: %+v", st)
	}
}

// TestControllerLockExcludesSecond pins satellite (a): the advisory lock
// makes a second writer on the same snapshot fail fast, with an error
// that says who holds it.
func TestControllerLockExcludesSecond(t *testing.T) {
	env := newTestEnv(t)
	c, err := NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := NewController(env.config()); err == nil {
		t.Fatal("second controller acquired the journal lock")
	} else if !strings.Contains(err.Error(), "locked by another refresh or ingest controller") {
		t.Fatalf("second controller error is not actionable: %v", err)
	}
	// Released on Close: a new controller can start.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := NewController(env.config())
	if err != nil {
		t.Fatalf("lock not released by Close: %v", err)
	}
	c2.Close()
}

// TestControllerSweepsFoldStateTemps: a fold-state save cut short by a
// crash leaves its landing temp in the WAL directory, and the next
// controller removes it (and nothing else there).
func TestControllerSweepsFoldStateTemps(t *testing.T) {
	env := newTestEnv(t)
	if err := os.MkdirAll(env.walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(env.walDir, stateFile+".tmp123")
	kept := filepath.Join(env.walDir, "notes.tmp")
	for _, p := range []string{torn, kept} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("NewController left %s (stat: %v)", torn, err)
	}
	if _, err := os.Stat(kept); err != nil {
		t.Fatalf("NewController removed a file that is no landing temp: %v", err)
	}
}

// TestControllerChurnKickAndBackpressure covers the Run-loop plumbing
// around the fold: churn threshold kicks an early fold, and MaxLagRecords
// bounces Ingest with ErrBackpressure while folding is stuck.
func TestControllerChurnKickAndBackpressure(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.config()
	cfg.ChurnRecords = 10
	cfg.MaxLagRecords = 50
	failing := true
	cfg.Checkpoint = failAtBuilt(&failing, "injected")
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Ingest(env.records(0, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(env.records(50, 51)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("ingest past MaxLagRecords: %v", err)
	}
	if st := c.Stats(); st.BackpressureRejects != 1 {
		t.Fatalf("backpressure gauge: %+v", st)
	}
	// Draining the WAL (healed fold) releases backpressure.
	failing = false
	if _, err := c.FoldOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(env.records(50, 51)); err != nil {
		t.Fatalf("ingest after drain: %v", err)
	}
}

// TestFoldStateCrashAtPreRename crashes the fold state's landing — after
// its first write and just before its rename — over the state a fold
// saved, and reopens through NewController, the directory's one writer:
// the crash left a temp, and the controller sweeps it and resumes from
// the state the crash did not replace. serve's landing sites are crashed
// the same way in serve's TestLandingSitesCrashAtPreRename.
func TestFoldStateCrashAtPreRename(t *testing.T) {
	crash := errors.New("crash")
	for _, stage := range []string{"mid-write", "pre-rename"} {
		t.Run(stage, func(t *testing.T) {
			env := newTestEnv(t)
			c, err := NewController(env.config())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ingest(env.records(0, 20)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.FoldOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			c.Close()
			err = SaveFoldState(env.walDir, 40, env.base, func(s string) error {
				if s == stage {
					return crash
				}
				return nil
			})
			if !errors.Is(err, crash) {
				t.Fatalf("SaveFoldState returned %v, want the crash", err)
			}
			temps, err := filepath.Glob(filepath.Join(env.walDir, stateFile+".tmp*"))
			if err != nil || len(temps) != 1 {
				t.Fatalf("the crash left temps %v (%v), want one", temps, err)
			}
			if c, err = NewController(env.config()); err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if temps, _ := filepath.Glob(filepath.Join(env.walDir, "*.tmp*")); len(temps) != 0 {
				t.Fatalf("NewController left temps %v", temps)
			}
			if st, err := LoadFoldState(env.walDir); err != nil || st.Seq != 20 {
				t.Fatalf("the fold state after the crash: %+v, %v; want the fold's, at sequence 20", st, err)
			}
		})
	}
}
