package ingest

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/hedge"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
)

// The chaos suite kills the ingestion pipeline at every checkpoint a
// real crash could hit — mid-replay, mid-commit, between publish and
// cursor — and asserts the recovery invariant every time: the serving
// snapshot always opens, and a recovered controller converges on
// exactly the graph the full event history folds to, applying no record
// twice and losing none.

var chaosStages = []string{
	"fold:start",
	"fold:built",
	"fold:pre-commit",
	"fold:commit:mid-write",
	"fold:pre-publish",
	"fold:post-publish",
	"fold:post-cursor",
}

// expectedFingerprint builds, from scratch, the snapshot the full event
// prefix should converge to, and returns its generation fingerprint.
func expectedFingerprint(t *testing.T, env *testEnv, events int) string {
	t.Helper()
	b := clickgraph.NewBuilderFrom(env.base)
	for _, r := range env.records(0, events) {
		if err := b.AddEdge(r.Query, r.Ad, r.Weights()); err != nil {
			t.Fatal(err)
		}
	}
	return graphSnapshotFingerprint(t, b.Build())
}

func graphSnapshotFingerprint(t *testing.T, g *clickgraph.Graph) string {
	t.Helper()
	return fmt.Sprintf("%016x", partition.ComponentPlan(g).Fingerprint())
}

func servingFingerprint(t *testing.T, path string) string {
	t.Helper()
	snap, err := serve.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("serving snapshot does not open: %v", err)
	}
	defer snap.Close()
	if err := snap.PreloadAll(); err != nil {
		t.Fatalf("serving snapshot does not preload: %v", err)
	}
	return snap.Meta().Fingerprint
}

func TestChaosCrashAtEveryCheckpoint(t *testing.T) {
	for _, stage := range chaosStages {
		t.Run(stage, func(t *testing.T) {
			env := newTestEnv(t)
			want := expectedFingerprint(t, env, 60)

			crash := fmt.Errorf("injected crash at %s", stage)
			cfg := env.config()
			cfg.Checkpoint = func(s string) error {
				if s == stage {
					return crash
				}
				return nil
			}
			c, err := NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ingest(env.records(0, 60)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.FoldOnce(context.Background()); err == nil {
				t.Fatal("fold survived its injected crash")
			}
			// "Crash": the process dies here. Close only releases the
			// advisory lock so a successor can start — the WAL was
			// fsynced at Ingest, exactly as a kill -9 would leave it.
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			// Invariant 1: the serving path is never torn, whatever the
			// crash point — it is only ever replaced atomically.
			servingFingerprint(t, env.snapPath)
			// A crash mid-write leaves the torn journal temp a kill would.
			torn := filepath.Join(env.snapPath+".gens", "gen-*.snap.tmp*")
			if stage == "fold:commit:mid-write" && len(globFiles(t, torn)) == 0 {
				t.Fatal("the crash mid-write left no torn journal temp")
			}

			// Recovery: a fresh controller folds through and converges.
			c2, err := NewController(env.config())
			if err != nil {
				t.Fatalf("recovery controller: %v", err)
			}
			defer c2.Close()
			if left := globFiles(t, torn); len(left) != 0 {
				t.Fatalf("the successor's journal lock did not sweep %v", left)
			}
			fr, err := c2.FoldOnce(context.Background())
			if err != nil {
				t.Fatalf("recovery fold: %v", err)
			}
			// Crashes after publish converge by zero-dirty skip (or a
			// pure cursor skip); earlier crashes publish now. Either
			// way, one more fold must be a no-op...
			fr2, err := c2.FoldOnce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !fr2.Skipped {
				t.Fatalf("recovery did not converge: first %+v, second %+v", fr, fr2)
			}
			// ...and the serving snapshot is byte-complete and carries
			// exactly the full history's fingerprint: no record lost, no
			// record applied twice.
			if got := servingFingerprint(t, env.snapPath); got != want {
				t.Fatalf("recovered fingerprint %s, want %s (crash at %s)", got, want, stage)
			}
		})
	}
}

func globFiles(t *testing.T, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChaosTornWALTail crashes between the WAL write and its fsync
// completing: the active segment gains a partial frame. Recovery must
// truncate it and converge on the acknowledged prefix.
func TestChaosTornWALTail(t *testing.T) {
	env := newTestEnv(t)
	want := expectedFingerprint(t, env, 40)

	c, err := NewController(env.config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(env.records(0, 40)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The 41st record's frame reaches disk only partially.
	var torn []byte
	torn = appendFrame(torn, env.records(40, 41)[0])
	seg := activeSegPath(t, env.walDir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewController(env.config())
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer c2.Close()
	fr, err := c2.FoldOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Pending != 40 {
		t.Fatalf("torn-tail fold saw %d pending records, want the 40 acknowledged", fr.Pending)
	}
	if got := servingFingerprint(t, env.snapPath); got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
}

// TestChaosRefreshFailureStorm runs the REAL Run loop under a storm of
// refresh failures: backoff paces the retries, staleness climbs, the
// last good generation keeps serving, and the first success after the
// storm publishes and clears the degradation.
func TestChaosRefreshFailureStorm(t *testing.T) {
	env := newTestEnv(t)
	var fails atomic.Int64
	fails.Store(5)
	published := make(chan *serve.Generation, 1)
	cfg := env.config()
	cfg.Cadence = 2 * time.Millisecond
	var retryLines []string // appended on the Run goroutine only, read after it returns
	cfg.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "ingest: fold failed") {
			retryLines = append(retryLines, fmt.Sprintf(format, args...))
		}
	}
	cfg.OnPublish = func(gen *serve.Generation) {
		select {
		case published <- gen:
		default:
		}
	}
	cfg.Checkpoint = func(stage string) error {
		if stage == "fold:built" && fails.Add(-1) >= 0 {
			return fmt.Errorf("injected storm failure")
		}
		return nil
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: func() float64 { return 0 }}
	defer c.Close()
	before := env.servingBytes(t)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	if _, err := c.Ingest(env.records(0, 50)); err != nil {
		t.Fatal(err)
	}
	c.Kick()

	var gen *serve.Generation
	select {
	case gen = <-published:
	case <-time.After(30 * time.Second):
		t.Fatal("storm never cleared: no publish within 30s")
	}
	cancel()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatalf("Run returned %v", err)
	}

	// The delay a failed fold logs is the one the loop then waits: one
	// draw, for the attempt that just failed.
	if want := fmt.Sprintf("(attempt 1, retrying in %v)", c.backoff.Delay(1)); len(retryLines) == 0 || !strings.Contains(retryLines[0], want) {
		t.Fatalf("first failed fold logged %q, want %s", retryLines, want)
	}
	st := c.Stats()
	if st.RefreshFailures < 5 {
		t.Fatalf("storm recorded %d failures, want >= 5", st.RefreshFailures)
	}
	if st.Degraded || st.LastGeneration != gen.ID {
		t.Fatalf("stats after storm cleared: %+v (gen %d)", st, gen.ID)
	}
	if bytes.Equal(before, env.servingBytes(t)) {
		t.Fatal("storm cleared but nothing was published")
	}
	if got, want := servingFingerprint(t, env.snapPath), expectedFingerprint(t, env, 50); got != want {
		t.Fatalf("post-storm fingerprint %s, want %s", got, want)
	}
}

// TestChaosFoldRestoresDamagedServing damages the serving file between
// folds the only way the journal's rename-only contract allows — a whole
// file renamed over it, here garbage — and holds the next fold to the CLI
// refresh's recovery: re-point the serving path at the last good
// generation, log it, and fold on to the full history's fingerprint.
func TestChaosFoldRestoresDamagedServing(t *testing.T) {
	env := newTestEnv(t)
	want := expectedFingerprint(t, env, 80)
	var restored []string
	cfg := env.config()
	cfg.Logf = func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "restored generation") {
			restored = append(restored, line)
		}
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ingest(env.records(0, 40)); err != nil {
		t.Fatal(err)
	}
	first, err := c.FoldOnce(context.Background())
	if err != nil || first.GenID == 0 {
		t.Fatalf("first fold: %+v, %v", first, err)
	}

	garbage := env.snapPath + ".garbage"
	if err := os.WriteFile(garbage, bytes.Repeat([]byte("not a snapshot "), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(garbage, env.snapPath); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(env.records(40, 80)); err != nil {
		t.Fatal(err)
	}
	fr, err := c.FoldOnce(context.Background())
	if err != nil {
		t.Fatalf("fold over a damaged serving file: %v", err)
	}
	if fr.Skipped || fr.GenID <= first.GenID {
		t.Fatalf("fold after restore: %+v, want a generation past %d", fr, first.GenID)
	}
	if want := fmt.Sprintf("restored generation %d", first.GenID); len(restored) != 1 || !strings.Contains(restored[0], want) {
		t.Fatalf("restore log lines %q, want one naming %s", restored, want)
	}
	if st := c.Stats(); st.Degraded || st.RefreshFailures != 0 {
		t.Fatalf("stats after restore: %+v", st)
	}
	if got := servingFingerprint(t, env.snapPath); got != want {
		t.Fatalf("fingerprint %s, want the full history's %s", got, want)
	}
}
