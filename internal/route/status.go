// The gateway's own observability surface: /stats, /readyz, /healthz.
package route

import (
	"encoding/json"
	"net/http"
	"time"
)

// BackendStatus is one replica's probed state as reported by /stats and
// /readyz.
type BackendStatus struct {
	URL          string `json:"url"`
	Shards       []int  `json:"shards,omitempty"` // nil: full replica
	Health       string `json:"health"`
	Generation   string `json:"generation,omitempty"`
	GenerationID uint64 `json:"generation_id,omitempty"`
	Quarantined  int    `json:"quarantined,omitempty"`
	Probes       int64  `json:"probes"`
	ProbeFails   int64  `json:"probe_fails,omitempty"`
	ReadFails    int64  `json:"read_fails,omitempty"`
	BreakerOpen  bool   `json:"breaker_open,omitempty"`
	BreakerOpens int64  `json:"breaker_opens,omitempty"`
	LastProbeErr string `json:"last_probe_error,omitempty"`
}

// RolloutStatus is the generation state machine's position.
type RolloutStatus struct {
	// Pinned is the generation fingerprint reads are pinned to.
	Pinned string `json:"pinned"`
	// Pending is a newer generation seen on some replicas but still
	// below quorum ("" outside a rollout).
	Pending string `json:"pending,omitempty"`
	// QuorumNeed is how many serveable replicas a generation needs to
	// take the pin.
	QuorumNeed int `json:"quorum_need"`
	// Cutovers counts pin moves; Forced counts the subset taken without
	// quorum because the pinned generation had no live replicas.
	Cutovers int64 `json:"cutovers"`
	Forced   int64 `json:"forced,omitempty"`
}

// StatsResponse is the gateway /stats document.
type StatsResponse struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      int64           `json:"requests"`
	Proxied       int64           `json:"proxied"`
	Retries       int64           `json:"retries"`
	Hedges        int64           `json:"hedges"`
	Failovers     int64           `json:"failovers"`
	NoReplica     int64           `json:"no_replica"`
	Rollout       RolloutStatus   `json:"rollout"`
	Backends      []BackendStatus `json:"backends"`
	// Batches counts /batch requests relayed; BatchSubrequests the
	// upstream sub-requests they became (one per distinct candidate
	// list), so their ratio is the fan-out a batch pays.
	Batches          int64 `json:"batches"`
	BatchSubrequests int64 `json:"batch_subrequests"`
}

// ReadyResponse is the gateway /readyz document: "ok" when every
// configured replica serves the pinned generation cleanly, "degraded"
// (still 200) when at least one replica can answer, "unready" (503)
// when none can.
type ReadyResponse struct {
	Status   string          `json:"status"`
	Rollout  RolloutStatus   `json:"rollout"`
	Backends []BackendStatus `json:"backends"`
}

func (gw *Gateway) backendStatuses() []BackendStatus {
	out := make([]BackendStatus, 0, len(gw.backends))
	now := time.Now()
	for _, b := range gw.backends {
		b.mu.Lock()
		out = append(out, BackendStatus{
			URL:          b.spec.URL,
			Shards:       b.spec.Shards,
			Health:       b.health.String(),
			Generation:   b.gen,
			GenerationID: b.genID,
			Quarantined:  len(b.quarantined),
			Probes:       b.probes,
			ProbeFails:   b.probeFails,
			ReadFails:    b.readFails,
			BreakerOpen:  now.Before(b.breakerUntil),
			BreakerOpens: b.breakerOpens,
			LastProbeErr: b.lastProbeErr,
		})
		b.mu.Unlock()
	}
	return out
}

func (gw *Gateway) rolloutStatus() RolloutStatus {
	gw.mu.Lock()
	pinned, pending := gw.pinned, gw.pending
	gw.mu.Unlock()
	return RolloutStatus{
		Pinned:     pinned,
		Pending:    pending,
		QuorumNeed: gw.quorumNeed(),
		Cutovers:   gw.cutovers.Load(),
		Forced:     gw.forced.Load(),
	}
}

func (gw *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(gw.start).Seconds(),
		Requests:      gw.requests.Load(),
		Proxied:       gw.proxied.Load(),
		Retries:       gw.retries.Load(),
		Hedges:        gw.hedges.Load(),
		Failovers:     gw.failovers.Load(),
		NoReplica:     gw.noReplica.Load(),
		Rollout:       gw.rolloutStatus(),
		Backends:      gw.backendStatuses(),

		Batches:          gw.batches.Load(),
		BatchSubrequests: gw.batchSubs.Load(),
	})
}

func (gw *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (gw *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rollout := gw.rolloutStatus()
	backends := gw.backendStatuses()
	serveableOnPin, clean := 0, 0
	for _, b := range backends {
		h := b.Health == "ok" || b.Health == "degraded"
		if h && b.Generation == rollout.Pinned && rollout.Pinned != "" {
			serveableOnPin++
			if b.Health == "ok" && !b.BreakerOpen {
				clean++
			}
		}
	}
	resp := ReadyResponse{Rollout: rollout, Backends: backends}
	code := http.StatusOK
	switch {
	case serveableOnPin == 0:
		resp.Status = "unready"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case clean == len(backends):
		resp.Status = "ok"
	default:
		resp.Status = "degraded"
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
