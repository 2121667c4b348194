package route

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
)

// The fleet fixture is a deterministic 4-cluster
// graph whose per-cluster weights derive from seeds[c], so bumping one
// seed produces a *different generation* — different scores, different
// graph fingerprint — of the same node universe. Every node is interned
// up front so ids and the shard route map stay stable across
// generations, which is what lets a gateway's ShardRouter opened from
// one generation keep routing during a rollout to the next.

func fleetGraph(t *testing.T, seeds [4]int) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	for c := 0; c < 4; c++ {
		for q := 0; q < 10; q++ {
			b.AddQuery(fmt.Sprintf("c%d-q%d", c, q))
		}
		for a := 0; a < 8; a++ {
			b.AddAd(fmt.Sprintf("c%d-a%d", c, a))
		}
	}
	for c := 0; c < 4; c++ {
		for q := 0; q < 10; q++ {
			for a := 0; a < 8; a++ {
				if q%2 != a%2 {
					continue
				}
				clicks := int64((q*7+a*3+seeds[c])%9 + 1)
				err := b.AddEdge(fmt.Sprintf("c%d-q%d", c, q), fmt.Sprintf("c%d-a%d", c, a),
					clickgraph.EdgeWeights{
						Impressions:       clicks * 3,
						Clicks:            clicks,
						ExpectedClickRate: float64((q*5+a*11+seeds[c])%100) / 100,
					})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

func fleetCfg() core.Config {
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.Channel = core.ChannelClicks
	cfg.Iterations = 40
	cfg.Tolerance = 1e-10
	cfg.PruneEpsilon = 1e-8
	return cfg
}

// buildGeneration runs the graph sharded (8-shard component plan) and
// returns the loaded snapshot.
func buildGeneration(t *testing.T, seeds [4]int) *serve.Snapshot {
	t.Helper()
	data := generationBytes(t, seeds)
	snap, err := serve.NewSnapshot(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// generationBytes is buildGeneration's snapshot file.
func generationBytes(t *testing.T, seeds [4]int) []byte {
	t.Helper()
	g := fleetGraph(t, seeds)
	plan := partition.ComponentPlan(g)
	res, err := core.RunSharded(g, fleetCfg(), plan, core.ShardOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.snap")
	if err := serve.WriteSnapshotFileTopK(path, res, serve.TopKOptions{K: serve.DefaultRewriteTopK}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replica is one backend simrankd stand-in: a real serve.Server over a
// snapshot, running in-process.
type replica struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startReplica(t *testing.T, snap *serve.Snapshot, genID uint64) *replica {
	t.Helper()
	return startWrappedReplica(t, snap, genID, nil)
}

// startWrappedReplica lets a test interpose middleware (hit counters)
// between the gateway and the replica's real handler.
func startWrappedReplica(t *testing.T, snap *serve.Snapshot, genID uint64, wrap func(http.Handler) http.Handler) *replica {
	t.Helper()
	srv := serve.NewServer(snap, serve.DefaultServerConfig())
	srv.SetGenerationID(genID)
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &replica{srv: srv, ts: ts}
}

// newGateway builds a gateway over the replicas and primes it with one
// probe sweep.
func newGateway(t *testing.T, opt Options, reps ...*replica) *Gateway {
	t.Helper()
	for _, r := range reps {
		opt.Backends = append(opt.Backends, BackendSpec{URL: r.ts.URL})
	}
	gw, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(context.Background())
	return gw
}

// get issues one request against a handler and returns code, header, body.
func get(t *testing.T, h http.Handler, url string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}
