package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"time"

	"simrankpp/internal/core"
	"simrankpp/internal/ingest"
	"simrankpp/internal/partition"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/serve"
	"simrankpp/internal/sparse"
)

// answers is the /rewrite and /similar payload.
type answers struct {
	Query    string                `json:"query"`
	Method   string                `json:"method"`
	Rewrites []serve.RewriteAnswer `json:"rewrites"`
}

func parseAnswers(body []byte) ([]serve.RewriteAnswer, error) {
	var a answers
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("bad answer body: %w", err)
	}
	return a.Rewrites, nil
}

// readArgs splits a prepared GET back into what it asks for.
func readArgs(rawURL string) (path, q, ad string, top int, err error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return "", "", "", 0, err
	}
	v := u.Query()
	top = 5 // serve.DefaultServerConfig().DefaultTop
	if t := v.Get("top"); t != "" {
		if top, err = strconv.Atoi(t); err != nil {
			return "", "", "", 0, err
		}
	}
	return u.Path, v.Get("q"), v.Get("ad"), top, nil
}

// reference computes, in process and straight from the snapshot, what a
// sampled GET must have answered.
func reference(snap *serve.Snapshot, bids map[string]bool, req request) ([]serve.RewriteAnswer, error) {
	path, q, ad, top, err := readArgs(req.url)
	if err != nil {
		return nil, err
	}
	var scored []sparse.Scored
	name := snap.Query
	switch {
	case path == "/similar" && ad != "":
		id, ok := snap.AdID(ad)
		if !ok {
			return nil, fmt.Errorf("ad %q not in snapshot", ad)
		}
		scored, name = snap.TopSimilarAds(id, top), snap.Ad
	case path == "/similar":
		id, ok := snap.QueryID(q)
		if !ok {
			return nil, fmt.Errorf("query %q not in snapshot", q)
		}
		scored = snap.TopRewrites(id, top)
	case path == "/rewrite":
		id, ok := snap.QueryID(q)
		if !ok {
			return nil, fmt.Errorf("query %q not in snapshot", q)
		}
		if pre, hit := snap.PrecomputedRewrites(id, top); hit && top <= serve.DefaultRewriteTopK {
			scored = pre
			break
		}
		cands, err := pipeline(snap, bids, top).Rewrite(&rewrite.ResultSource{Index: snap}, id)
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			scored = append(scored, sparse.Scored{Node: c.Query, Score: c.Score})
		}
	default:
		return nil, fmt.Errorf("no reference for %s", req.url)
	}
	out := make([]serve.RewriteAnswer, len(scored))
	for i, s := range scored {
		out[i] = serve.RewriteAnswer{Text: name(s.Node), Score: s.Score}
	}
	return out, nil
}

// pipeline is the live §9.3 pipeline as the server configures it.
func pipeline(snap *serve.Snapshot, bids map[string]bool, top int) *rewrite.Pipeline {
	p := rewrite.NewPipeline(snap, bids)
	p.MaxRewrites = top
	return p
}

func sameAnswers(a, b []serve.RewriteAnswer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSamples verifies every sampled gateway answer: byte-identical to
// what a replica answers directly, and — for GETs — equal to the snapshot
// read in process. Each sample is one attempted operation.
func (e *env) checkSamples(st *Stack, snap *serve.Snapshot, bids map[string]bool, s *sampler) {
	c := newClient()
	defer c.close()
	for i, req := range s.reqs {
		e.attempted.Add(1)
		direct := req
		direct.url = st.ReplicaURL[i%len(st.ReplicaURL)] + req.url[len(st.GatewayURL):]
		status, body, _ := c.do(&direct)
		if status != 200 || !bytes.Equal(body, s.got[i]) {
			e.failf("gateway answer for %s differs from the replica's (HTTP %d)", req.url, status)
			continue
		}
		if req.body != nil {
			continue // a batch item is a /rewrite answer; those are checked as GETs
		}
		got, err := parseAnswers(s.got[i])
		if err != nil {
			e.failf("%s: %v", req.url, err)
			continue
		}
		want, err := reference(snap, bids, req)
		if err != nil || !sameAnswers(got, want) {
			e.failf("%s: served %v, snapshot says %v (%v)", req.url, got, want, err)
		}
	}
}

// checkFinalGeneration is the write path's answer check, run after the
// click stream has been drained: the generation the replicas ended on
// must fingerprint, shard for shard, like a from-scratch projection of the
// full-history graph, and what clients read through the gateway must be
// within 1e-3 of a cold run on that graph.
func (e *env) checkFinalGeneration(st *Stack, sent []ingest.Record) error {
	full, err := BuildGraph(append(append([]ingest.Record(nil), e.ds.Log...), sent...))
	if err != nil {
		return err
	}
	final, ok := st.Servers[0].Index().(*serve.Snapshot)
	if !ok {
		return fmt.Errorf("replica 0 serves no snapshot")
	}
	t0 := time.Now()
	diff, err := partition.DiffPlans(final, full)
	if err != nil {
		return err
	}
	e.set("partition.diff_plans_ms", float64(time.Since(t0))/1e6, 1)
	var fp uint64
	for _, sh := range diff.Plan.Shards {
		fp ^= sh.Fingerprint
	}
	e.attempted.Add(1)
	if diff.DirtyShards != 0 || fmt.Sprintf("%016x", fp) != final.Meta().Fingerprint {
		e.failf("final generation %s does not reflect the full-history graph (%d shards differ, from-scratch fingerprint %016x)",
			final.Meta().Fingerprint, diff.DirtyShards, fp)
	}

	queries := e.ds.HotClusterQueries(full, e.opt.Scale.FreshChecks)
	mask := make([]bool, len(diff.Plan.Shards))
	for _, q := range queries {
		if _, shard, ok := final.PrevQuery(q); ok {
			mask[shard] = true
		}
	}
	cold, err := core.RunSharded(full, engineConfig(), diff.Plan, core.ShardOptions{RunShards: mask})
	if err != nil {
		return err
	}
	c := newClient()
	defer c.close()
	for _, q := range queries {
		e.attempted.Add(1)
		req := get(st.GatewayURL, "/similar", "q", q, 10)
		status, body, _ := c.do(&req)
		got, err := parseAnswers(body)
		if status != 200 || err != nil {
			e.failf("post-ingest read of %q: HTTP %d %v", q, status, err)
			continue
		}
		qi, _ := full.QueryID(q)
		for _, a := range got {
			id, ok := full.QueryID(a.Text)
			if !ok || math.Abs(cold.QuerySim(qi, id)-a.Score) > 1e-3 {
				e.failf("post-ingest %q→%q served %.6f, cold run says %.6f", q, a.Text, a.Score, cold.QuerySim(qi, id))
				break
			}
		}
	}
	return nil
}
