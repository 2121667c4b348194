package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/faultfs"
	"simrankpp/internal/hedge"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
)

// Chaos suite for the distributed refresh path, driven by the faultfs
// HTTP injector (dead workers, mid-transfer cuts, corruption,
// stragglers) and serve.Refresh's checkpoint hook with the coordinator
// as its shard runner (crashes at every refresh stage). Every scenario
// ends with the same assertion the
// tentpole demands: the bytes that finally serve are exactly what a
// single-machine refresh would have produced.

// chaosLogf collects coordinator log lines; safe for the concurrent
// dispatch goroutines.
type chaosLogf struct {
	mu    sync.Mutex
	lines []string
}

func (cl *chaosLogf) logf(format string, args ...any) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.lines = append(cl.lines, fmt.Sprintf(format, args...))
}

func (cl *chaosLogf) contains(substr string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, l := range cl.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// chaosFixture builds a previous generation, a churned next graph, its
// diff, and the local-path refresh bytes every scenario must reproduce.
func chaosFixture(t *testing.T) (*serve.Snapshot, []byte, *clickgraph.Graph, *partition.Diff, []byte) {
	t.Helper()
	cfg := refreshCfg()
	prevBytes, prev := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), cfg)
	next := refreshGraph(t, [4]int{9, 2, 3, 4})
	_, _, want := localRefreshBytes(t, next, prev)
	diff, err := partition.DiffPlans(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if diff.DirtyShards == 0 {
		t.Fatal("fixture produced no dirty shards")
	}
	return prev, prevBytes, next, diff, want
}

// assembleFleet runs the fleet and assembles the refreshed snapshot.
func assembleFleet(t *testing.T, c *Coordinator, next *clickgraph.Graph, prev *serve.Snapshot, diff *partition.Diff) (*FleetResult, []byte) {
	t.Helper()
	fleet, err := c.RefreshShards(context.Background(), next, prev, diff.Plan, diff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, assembleBytes(t, next, prev, diff, &fleet.ShardRun)
}

// journalFixture is chaosFixture on disk: the previous generation is the
// serving file of a generation store that has adopted it, so a refresh
// can run through serve.Refresh with a coordinator as its shard runner.
type journalFixture struct {
	path      string
	gs        *serve.GenerationStore
	adopted   *serve.Generation
	prevBytes []byte
	next      *clickgraph.Graph
	want      []byte // the local-only refresh's bytes
}

func newJournalFixture(t *testing.T) *journalFixture {
	t.Helper()
	fx := &journalFixture{next: refreshGraph(t, [4]int{9, 2, 3, 4})}
	var prev *serve.Snapshot
	fx.prevBytes, prev = buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), refreshCfg())
	_, _, fx.want = localRefreshBytes(t, fx.next, prev)
	fx.path = filepath.Join(t.TempDir(), "scores.snap")
	if err := os.WriteFile(fx.path, fx.prevBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	fx.gs = serve.NewGenerationStore(fx.path)
	var err error
	if fx.adopted, err = fx.gs.Adopt(); err != nil || fx.adopted == nil {
		t.Fatalf("Adopt = (%v, %v)", fx.adopted, err)
	}
	return fx
}

// refresh runs one journaled refresh with c as the shard runner.
func (fx *journalFixture) refresh(ctx context.Context, c *Coordinator, checkpoint func(string) error) error {
	_, err := serve.Refresh(ctx, fx.gs, fx.next, c.Run, nil, checkpoint)
	return err
}

// TestChaosWorkerKilledMidShard is acceptance scenario (a): one worker's
// responses are cut mid-transfer (a worker killed while streaming its
// segment). The lease must be re-dispatched and the final refresh must
// be byte-identical to the local-only path.
func TestChaosWorkerKilledMidShard(t *testing.T) {
	prev, _, next, diff, want := chaosFixture(t)
	urls := startWorkers(t, 2)

	inj := faultfs.NewHTTPInjector()
	inj.TruncateBody(hostOf(t, urls[0]), 64) // every response from worker 0 dies mid-stream
	cl := &chaosLogf{}
	c := NewCoordinator(urls, Options{Transport: inj.Transport(nil), Logf: cl.logf})
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}

	fleet, got := assembleFleet(t, c, next, prev, diff)
	if fleet.Stats.Retries == 0 {
		t.Fatalf("cut worker never forced a re-dispatch: %+v", fleet.Stats)
	}
	if fleet.Stats.RemoteShards != diff.DirtyShards || fleet.Stats.LocalFallbackShards != 0 {
		t.Fatalf("stats %+v: want all %d dirty shards computed remotely", fleet.Stats, diff.DirtyShards)
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("refresh under a killed worker differs from the local-only refresh")
	}
}

// TestChaosCorruptResponseRejected: a worker whose response bytes are
// bit-flipped in flight must be treated as failed — the CRC trailer
// rejects the payload and the lease is re-dispatched, never assembled.
func TestChaosCorruptResponseRejected(t *testing.T) {
	prev, _, next, diff, want := chaosFixture(t)
	urls := startWorkers(t, 2)

	inj := faultfs.NewHTTPInjector()
	inj.FlipBodyBit(hostOf(t, urls[0]), 100, 3) // corrupt worker 0's payloads
	cl := &chaosLogf{}
	c := NewCoordinator(urls, Options{Transport: inj.Transport(nil), Logf: cl.logf})
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}

	fleet, got := assembleFleet(t, c, next, prev, diff)
	if fleet.Stats.Retries == 0 {
		t.Fatalf("corrupted responses never forced a re-dispatch: %+v", fleet.Stats)
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("refresh under response corruption differs from the local-only refresh")
	}
}

// TestChaosAllWorkersDeadLocalFallback is acceptance scenario (b): with
// every worker unreachable the refresh must degrade to the local
// recompute path, complete, and still produce the exact local bytes.
func TestChaosAllWorkersDeadLocalFallback(t *testing.T) {
	prev, _, next, diff, want := chaosFixture(t)
	urls := startWorkers(t, 2)

	inj := faultfs.NewHTTPInjector()
	inj.Drop("", -1) // the whole fleet is unreachable
	cl := &chaosLogf{}
	c := NewCoordinator(urls, Options{Transport: inj.Transport(nil), LocalWorkers: 3, Logf: cl.logf})
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}

	fleet, got := assembleFleet(t, c, next, prev, diff)
	if fleet.Stats.RemoteShards != 0 || fleet.Stats.LocalFallbackShards != diff.DirtyShards {
		t.Fatalf("stats %+v: want all %d dirty shards recomputed locally", fleet.Stats, diff.DirtyShards)
	}
	if fleet.Stats.WorkerDeaths != len(urls) {
		t.Errorf("WorkerDeaths = %d, want %d", fleet.Stats.WorkerDeaths, len(urls))
	}
	if !cl.contains("fallback-to-local") {
		t.Error("fallback did not log its fallback-to-local line")
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("local-fallback refresh differs from the local-only refresh")
	}
}

// TestChaosStragglerHedged: a worker that is alive but slow must get
// its lease hedged to a second worker once the latency percentile says
// it is straggling — and the hedge's bytes are the same bytes.
func TestChaosStragglerHedged(t *testing.T) {
	prev, _, next, diff, want := chaosFixture(t)
	urls := startWorkers(t, 2)

	inj := faultfs.NewHTTPInjector()
	inj.SetLatency(hostOf(t, urls[0]), 2*time.Second) // worker 0 straggles
	cl := &chaosLogf{}
	c := NewCoordinator(urls, Options{Transport: inj.Transport(nil), Logf: cl.logf})
	c.lat = &hedge.Tracker{Floor: 5 * time.Millisecond}
	// Prime the latency window: hedging needs completed-lease samples
	// before it can call anything a straggler.
	for i := 0; i < 3; i++ {
		c.lat.Record(2 * time.Millisecond)
	}

	start := time.Now()
	fleet, got := assembleFleet(t, c, next, prev, diff)
	if fleet.Stats.Hedges == 0 {
		t.Fatalf("straggling worker was never hedged: %+v", fleet.Stats)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged refresh still waited out the straggler (%v)", elapsed)
	}
	if fleet.Stats.RemoteShards != diff.DirtyShards || fleet.Stats.LocalFallbackShards != 0 {
		t.Fatalf("stats %+v: want all %d dirty shards computed remotely", fleet.Stats, diff.DirtyShards)
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("hedged refresh differs from the local-only refresh")
	}
}

// TestChaosCoordinatorCrashRecovery is acceptance scenario (c): the
// coordinator dies at every checkpoint of the refresh driver in turn.
// After each crash the serving file must be one whole generation — the
// previous one until the atomic publish, the new one after it —
// openable and rollback-clean, and a retried refresh must publish the
// exact local-path bytes.
func TestChaosCoordinatorCrashRecovery(t *testing.T) {
	stages := []string{"pre-commit", "commit:mid-write", "pre-publish", "post-publish"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			fx := newJournalFixture(t)
			urls := startWorkers(t, 2)
			cl := &chaosLogf{}
			crashed := NewCoordinator(urls, Options{Logf: cl.logf})
			err := fx.refresh(context.Background(), crashed, func(s string) error {
				if s == stage {
					return fmt.Errorf("injected coordinator crash at %s", s)
				}
				return nil
			})
			if err == nil {
				t.Fatalf("refresh survived an injected crash at %s", stage)
			}

			// The previous generation still serves, byte for byte (after
			// the publish: the new one, whole), and the journal still
			// verifies a rollback target.
			serving, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatal(err)
			}
			if stage == "post-publish" {
				if !bytes.Equal(maskVolatile(t, serving), maskVolatile(t, fx.want)) {
					t.Fatalf("crash at %s, after the publish, left something other than the refreshed generation serving", stage)
				}
			} else if !bytes.Equal(serving, fx.prevBytes) {
				t.Fatalf("crash at %s disturbed the serving snapshot", stage)
			}
			if snap, err := serve.OpenSnapshot(fx.path); err != nil {
				t.Fatalf("serving snapshot no longer opens after crash at %s: %v", stage, err)
			} else {
				snap.Close()
			}
			good, err := fx.gs.LastGood()
			if err != nil {
				t.Fatalf("no good generation after crash at %s: %v", stage, err)
			}
			if good.CRC != fx.adopted.CRC || good.Size != fx.adopted.Size {
				// A crash after commit legitimately leaves the (valid, maybe
				// never published) next generation as the newest good one;
				// the serving bytes above are the real invariant. But before
				// commit the adopted generation must still be the last good.
				if stage == "pre-commit" || stage == "commit:mid-write" {
					t.Fatalf("crash at %s replaced the last-good generation", stage)
				}
			}

			// Recovery: take the lock (which sweeps debris) and rerun with
			// a fresh coordinator.
			release, _, err := fx.gs.Lock()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			retry := NewCoordinator(urls, Options{Logf: cl.logf})
			if err := fx.refresh(context.Background(), retry, nil); err != nil {
				t.Fatalf("retried refresh after crash at %s: %v", stage, err)
			}
			published, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(maskVolatile(t, published), maskVolatile(t, fx.want)) {
				t.Fatalf("recovered refresh after crash at %s differs from the local-only refresh", stage)
			}
		})
	}
}

// TestChaosCancelledDuringFallback: the fleet is dead, the refresh has
// degraded to the local recompute, and the caller gives up (SIGTERM)
// just as it starts. The fallback runs under the caller's context like
// the dispatch phase does, so the refresh must stop at the next shard
// boundary with the context's error and commit nothing — not finish a
// refresh nobody is waiting for.
func TestChaosCancelledDuringFallback(t *testing.T) {
	fx := newJournalFixture(t)
	urls := startWorkers(t, 2)
	inj := faultfs.NewHTTPInjector()
	inj.Drop("", -1) // the whole fleet is unreachable
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewCoordinator(urls, Options{
		Transport: inj.Transport(nil),
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "dist: fallback-to-local") {
				cancel()
			}
		},
	})
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	journal := func() []string {
		entries, err := os.ReadDir(fx.path + ".gens")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	before := journal()

	if err := fx.refresh(ctx, c, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("refresh cancelled at its local fallback returned %v, want context.Canceled", err)
	}
	if after := journal(); !slices.Equal(before, after) {
		t.Fatalf("cancelled refresh changed the journal: %v -> %v", before, after)
	}
	if serving, err := os.ReadFile(fx.path); err != nil || !bytes.Equal(serving, fx.prevBytes) {
		t.Fatalf("cancelled refresh disturbed the serving snapshot (read error %v)", err)
	}
}

// TestChaosFleetStateIsPerRefresh: what a refresh learns about the fleet
// — retries counted, workers given up on — must not leak into the next
// one on the same coordinator. The first refresh meets maxWorkerFails
// 5xx in a row, which marks the only worker dead and sends a shard to
// the local fallback; the worker has healed by the second refresh, which
// must try it again, be served remotely, and report none of the first
// one's counters.
func TestChaosFleetStateIsPerRefresh(t *testing.T) {
	prev, _, next, diff, want := chaosFixture(t)
	urls := startWorkers(t, 1)

	inj := faultfs.NewHTTPInjector()
	inj.Respond5xx(hostOf(t, urls[0]), maxWorkerFails)
	cl := &chaosLogf{}
	c := NewCoordinator(urls, Options{Transport: inj.Transport(nil), Logf: cl.logf})
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}

	first, got := assembleFleet(t, c, next, prev, diff)
	if first.Stats.Retries == 0 || first.Stats.WorkerDeaths != 1 || first.Stats.LocalFallbackShards == 0 {
		t.Fatalf("first refresh stats %+v: want a retry, the worker marked dead, a local fallback", first.Stats)
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("first refresh differs from the local-only refresh")
	}

	second, got := assembleFleet(t, c, next, prev, diff)
	if second.Stats != (FleetStats{RemoteShards: diff.DirtyShards}) {
		t.Fatalf("second refresh stats %+v: want all %d dirty shards remote and every other counter 0", second.Stats, diff.DirtyShards)
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("second refresh differs from the local-only refresh")
	}
}

// TestChaosRetryAfterHonored: a worker shedding 503 with a Retry-After
// hint must not be hammered back on the coordinator's millisecond-scale
// local schedule — the re-dispatch waits out the max of the local
// backoff and the worker's own hint.
func TestChaosRetryAfterHonored(t *testing.T) {
	prev, _, next, diff, want := chaosFixture(t)
	urls := startWorkers(t, 1)

	inj := faultfs.NewHTTPInjector()
	inj.SetRetryAfter(hostOf(t, urls[0]), 1)
	inj.Respond5xx(hostOf(t, urls[0]), 1) // one shed with a 1s hint, then healthy
	cl := &chaosLogf{}
	c := NewCoordinator(urls, Options{Transport: inj.Transport(nil), Logf: cl.logf})
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}

	start := time.Now()
	fleet, got := assembleFleet(t, c, next, prev, diff)
	if fleet.Stats.Retries == 0 {
		t.Fatalf("shed worker never forced a re-dispatch: %+v", fleet.Stats)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("re-dispatch after a Retry-After: 1 shed came back in %v — the hint was not honored", elapsed)
	}
	if fleet.Stats.LocalFallbackShards != 0 {
		t.Fatalf("shed worker pushed shards to local fallback: %+v", fleet.Stats)
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("refresh under a shedding worker differs from the local-only refresh")
	}
}

// TestChaosFlappingWorker: a worker that answers 503 for a burst and
// then recovers must be retried onto, not abandoned — the fleet heals
// without falling back to local compute.
func TestChaosFlappingWorker(t *testing.T) {
	prev, _, next, diff, want := chaosFixture(t)
	urls := startWorkers(t, 2)

	inj := faultfs.NewHTTPInjector()
	inj.Respond5xx(hostOf(t, urls[0]), 2) // two failures, then healthy
	cl := &chaosLogf{}
	c := NewCoordinator(urls, Options{Transport: inj.Transport(nil), Logf: cl.logf})
	c.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}

	fleet, got := assembleFleet(t, c, next, prev, diff)
	if fleet.Stats.LocalFallbackShards != 0 {
		t.Fatalf("flapping worker pushed shards to local fallback: %+v", fleet.Stats)
	}
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("refresh under a flapping worker differs from the local-only refresh")
	}
}
