package dist

import (
	"fmt"
	"io"
	"log"
	"net/http"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
	"simrankpp/internal/sparse"
)

// Worker executes refresh-shard leases: rebuild the shard's subgraph
// from the wire, run one engine over it (warm-started when the lease
// carries seeds), and return the encoded segments in global ids. The
// rebuild is bit-faithful: lease names arrive in subview-local order
// and edges ship every weight channel, so the rebuilt graph — and
// therefore the deterministic engine's output, and therefore the
// encoded segment bytes — is identical to what the coordinator's own
// local recompute of the same shard would produce.
type Worker struct {
	// Workers is the engine's row-parallelism budget (<= 0: GOMAXPROCS).
	Workers int
	// MaxLeaseBytes bounds a /refresh-shard request body; <= 0 selects
	// 1 GiB.
	MaxLeaseBytes int64
	// Logf receives one line per lease; nil uses the standard logger.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// wireScores adapts a lease's warm-start pairs to core.ScoreSource so
// the worker's engine seeds through the same core.FillWarmSeeds a local
// refresh uses. Naming delegates to the rebuilt subgraph (the
// lease shipped prior-generation pairs already mapped to local ids);
// partner lists hold only j > i, which is the half the seeder keeps.
type wireScores struct {
	g             *clickgraph.Graph
	queryPartners [][]sparse.Scored
	adPartners    [][]sparse.Scored
}

func newWireScores(g *clickgraph.Graph, warmQ, warmA []WirePair) *wireScores {
	ws := &wireScores{
		g:             g,
		queryPartners: make([][]sparse.Scored, g.NumQueries()),
		adPartners:    make([][]sparse.Scored, g.NumAds()),
	}
	for _, p := range warmQ {
		ws.queryPartners[p.I] = append(ws.queryPartners[p.I], sparse.Scored{Node: int(p.J), Score: p.Score})
	}
	for _, p := range warmA {
		ws.adPartners[p.I] = append(ws.adPartners[p.I], sparse.Scored{Node: int(p.J), Score: p.Score})
	}
	return ws
}

func (ws *wireScores) Query(id int) string             { return ws.g.Query(id) }
func (ws *wireScores) Ad(id int) string                { return ws.g.Ad(id) }
func (ws *wireScores) QueryID(name string) (int, bool) { return ws.g.QueryID(name) }
func (ws *wireScores) AdID(name string) (int, bool)    { return ws.g.AdID(name) }

func (ws *wireScores) TopRewrites(q, k int) []sparse.Scored {
	return ws.queryPartners[q]
}

func (ws *wireScores) TopSimilarAds(a, k int) []sparse.Scored {
	return ws.adPartners[a]
}

// RefreshShard executes one lease and returns its response.
func (w *Worker) RefreshShard(l *Lease) (*SegmentResponse, error) {
	if err := l.Config.Validate(); err != nil {
		return nil, fmt.Errorf("dist: lease config: %w", err)
	}
	// Rebuild the shard subgraph. Names intern in shipped (subview-
	// local) order so ids match the coordinator's subview; each wire
	// edge is added exactly once (the subview's edge table holds unique
	// (q,a) edges), so Builder's duplicate-merge never fires and the
	// built table is the subview's, bit for bit.
	b := clickgraph.NewBuilder()
	for _, name := range l.QueryNames {
		b.AddQuery(name)
	}
	for _, name := range l.AdNames {
		b.AddAd(name)
	}
	if b.NumQueries() != len(l.QueryNames) || b.NumAds() != len(l.AdNames) {
		return nil, fmt.Errorf("dist: lease shard %d has duplicate node names", l.Shard)
	}
	for _, e := range l.Edges {
		if err := b.AddEdge(l.QueryNames[e.Q], l.AdNames[e.A], clickgraph.EdgeWeights{
			Impressions:       e.Impressions,
			Clicks:            e.Clicks,
			ExpectedClickRate: e.Rate,
		}); err != nil {
			return nil, fmt.Errorf("dist: rebuilding lease shard %d: %w", l.Shard, err)
		}
	}
	g := b.Build()

	// One engine over the whole subgraph — NOT a per-component plan.
	// Under a tolerance the engine stops when the whole shard converges;
	// splitting into components would let each stop on its own schedule
	// and diverge from what the coordinator's local path computes.
	opt := core.ShardOptions{Workers: w.Workers}
	if len(l.WarmQuery)+len(l.WarmAd) > 0 {
		opt.WarmStart = newWireScores(g, l.WarmQuery, l.WarmAd)
	}
	res, err := core.RunSharded(g, l.Config, partition.WholePlan(g), opt)
	if err != nil {
		return nil, fmt.Errorf("dist: running lease shard %d: %w", l.Shard, err)
	}
	return &SegmentResponse{
		Generation:   l.Generation,
		Shard:        l.Shard,
		Fingerprint:  l.Fingerprint,
		Iterations:   res.Iterations,
		Converged:    res.Converged,
		ShardSegment: serve.EncodeShardSegment(res.QueryScores, res.AdScores, l.QueryIDs, l.AdIDs),
	}, nil
}

// Handler serves the worker protocol:
//
//	POST /refresh-shard  an encoded Lease; answers an encoded
//	                     SegmentResponse (400 on a bad lease, 500 on an
//	                     engine failure)
//	GET  /healthz        liveness probe
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		io.WriteString(rw, `{"status":"ok"}`+"\n")
	})
	mux.HandleFunc("/refresh-shard", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST required", http.StatusMethodNotAllowed)
			return
		}
		limit := w.MaxLeaseBytes
		if limit <= 0 {
			limit = 1 << 30
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
		if err != nil {
			http.Error(rw, "reading lease: "+err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > limit {
			http.Error(rw, "lease exceeds size limit", http.StatusRequestEntityTooLarge)
			return
		}
		lease, err := DecodeLease(body)
		if err != nil {
			w.logf("dist: rejected lease: %v", err)
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := w.RefreshShard(lease)
		if err != nil {
			w.logf("dist: lease shard %d failed: %v", lease.Shard, err)
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		w.logf("dist: completed lease shard %d gen %016x (%d queries, %d ads, %d edges; %d iters, converged=%v)",
			lease.Shard, lease.Generation, len(lease.QueryNames), len(lease.AdNames), len(lease.Edges),
			resp.Iterations, resp.Converged)
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Write(resp.Encode())
	})
	return mux
}
