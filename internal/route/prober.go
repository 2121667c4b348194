// Health probing and the generation-rollout state machine.
//
// The gateway's consistency guarantee — no response ever mixes snapshot
// generations, and concurrent clients never see the fleet flap between
// generations mid-rollout — reduces to one rule: reads are pinned to a
// single generation fingerprint, and the pin moves only through the
// two-phase cutover below.
//
// Phase 1 (observe): probes record each replica's generation. A new
// generation appearing on some replicas is merely *pending* — reads keep
// going to the pinned generation's replicas, so a half-rolled-out fleet
// answers uniformly from the old snapshot.
//
// Phase 2 (cutover): once a quorum of replicas report the same new
// generation AND the pinned generation has fallen below quorum, the pin
// moves in one step under the gateway lock. Requiring the old
// generation to drop below quorum makes the transfer unambiguous: two
// generations can't both hold quorum with Quorum > ½, and a replica
// rejoining on the old generation after cutover is simply excluded from
// routing rather than dragging the fleet backwards. The same rule run
// in reverse is a rollback: re-push the old snapshot to a quorum and
// the pin returns. Forced failover is the one exception — if every
// replica on the pinned generation is gone, serving *something*
// consistent beats serving nothing, so the pin jumps to the
// best-represented serveable generation even below quorum.
package route

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"simrankpp/internal/hedge"
	"simrankpp/internal/serve"
)

// Run probes the fleet every probeInterval until ctx is
// cancelled. The interval is equal-jittered into [½, 1]× so many
// gateways probing the same fleet don't align into probe storms. On the
// way out it closes the idle connections of the gateway's own transport
// (a caller-supplied Options.Transport is the caller's to close).
func (gw *Gateway) Run(ctx context.Context) {
	if gw.pool != nil {
		defer gw.pool.CloseIdleConnections()
	}
	for {
		gw.ProbeAll(ctx)
		// One step of a schedule whose base and cap are the interval: the
		// interval, equal-jittered.
		iv := gw.probeInterval
		select {
		case <-ctx.Done():
			return
		case <-time.After(hedge.Backoff{Base: iv, Max: iv}.Delay(1)):
		}
	}
}

// ProbeAll probes every backend once, in parallel, then advances the
// rollout state machine on the fresh classifications.
func (gw *Gateway) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range gw.backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			gw.probeOne(ctx, b)
		}(b)
	}
	wg.Wait()
	gw.updateRollout()
}

// probeOne classifies one backend from its /readyz.
func (gw *Gateway) probeOne(ctx context.Context, b *backendState) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.spec.URL+"/readyz", nil)
	if err != nil {
		b.observe(HealthUnreachable, "", 0, nil, err)
		return
	}
	resp, err := gw.client.Do(req)
	if err != nil {
		b.observe(HealthUnreachable, "", 0, nil, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		b.observe(HealthUnreachable, "", 0, nil, err)
		return
	}
	var ready serve.ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		b.observe(HealthUnreachable, "", 0, nil,
			fmt.Errorf("route: %s /readyz: %w", b.spec.URL, err))
		return
	}
	h := HealthUnready
	switch {
	case resp.StatusCode == http.StatusOK && ready.Status == "ok":
		h = HealthOK
	case resp.StatusCode == http.StatusOK && ready.Status == "degraded":
		h = HealthDegraded
	}
	gen, genID := "", uint64(0)
	if ready.Generation != nil {
		gen, genID = ready.Generation.Fingerprint, ready.Generation.ID
	}
	b.mu.Lock()
	prev := b.health
	b.mu.Unlock()
	if prev != h {
		gw.logf("route: backend %s %s -> %s (generation %s)", b.spec.URL, prev, h, gen)
	}
	b.observe(h, gen, genID, ready.Quarantined, nil)
}

// genTally is one generation's standing in the fleet.
type genTally struct {
	gen   string
	count int    // serveable replicas reporting it
	maxID uint64 // highest journal id seen with it (tiebreak, observability)
}

// quorumNeed is how many serveable replicas a generation needs before
// reads cut over to it: ceil(Quorum × fleet size), at least 1, and never
// more than the fleet (a Quorum of 1.0 on any fleet is "everyone").
func (gw *Gateway) quorumNeed() int {
	total := len(gw.backends)
	need := int(gw.opt.Quorum * float64(total))
	if float64(need) < gw.opt.Quorum*float64(total) {
		need++
	}
	if need < 1 {
		need = 1
	}
	if need > total {
		need = total
	}
	return need
}

// updateRollout advances the two-phase cutover described in the file
// comment. Called after every probe sweep.
func (gw *Gateway) updateRollout() {
	tallies := make(map[string]*genTally)
	for _, b := range gw.backends {
		b.mu.Lock()
		h, gen, genID := b.health, b.gen, b.genID
		b.mu.Unlock()
		if !h.serveable() || gen == "" {
			continue
		}
		t := tallies[gen]
		if t == nil {
			t = &genTally{gen: gen}
			tallies[gen] = t
		}
		t.count++
		if genID > t.maxID {
			t.maxID = genID
		}
	}

	// Rank generations: most replicas first, then newest journal id,
	// then lexical fingerprint for determinism.
	ranked := make([]*genTally, 0, len(tallies))
	for _, t := range tallies {
		ranked = append(ranked, t)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		if ranked[i].maxID != ranked[j].maxID {
			return ranked[i].maxID > ranked[j].maxID
		}
		return ranked[i].gen < ranked[j].gen
	})

	need := gw.quorumNeed()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	pinCount := 0
	if t := tallies[gw.pinned]; t != nil {
		pinCount = t.count
	}
	gw.pending = ""

	if gw.pinned == "" {
		// First pin: take the best-represented generation, quorum or not —
		// there is no old generation to stay consistent with.
		if len(ranked) > 0 {
			gw.pinned = ranked[0].gen
			gw.logf("route: pinned generation %s (id %d, %d/%d replicas)",
				gw.pinned, ranked[0].maxID, ranked[0].count, len(gw.backends))
		}
		return
	}

	// Cutover: a different generation holds quorum and the pinned one
	// has lost it.
	for _, t := range ranked {
		if t.gen == gw.pinned {
			continue
		}
		if t.count >= need && pinCount < need {
			gw.logf("route: cutover %s -> %s (id %d, %d/%d replicas >= quorum %d, old at %d)",
				gw.pinned, t.gen, t.maxID, t.count, len(gw.backends), need, pinCount)
			gw.pinned = t.gen
			gw.cutovers.Add(1)
			return
		}
		if t.count > 0 {
			gw.pending = t.gen
		}
		break // only the best challenger can pend or win
	}

	// Forced failover: nothing serves the pinned generation at all, but
	// some other generation is serveable. Consistency with a generation
	// that no longer exists is worth nothing — move.
	if pinCount == 0 && len(ranked) > 0 && ranked[0].gen != gw.pinned {
		gw.logf("route: forced failover %s -> %s (pinned generation has no live replicas)",
			gw.pinned, ranked[0].gen)
		gw.pinned = ranked[0].gen
		gw.pending = ""
		gw.cutovers.Add(1)
		gw.forced.Add(1)
	}
}
