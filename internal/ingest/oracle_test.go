package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"simrankpp/internal/partition"
	"simrankpp/internal/route"
	"simrankpp/internal/serve"
)

// TestGatewayAnswersEqualColdBuild checks the composed system's answers:
// after each fold of foldAgainstColdBuilds, what a client reads through a
// real gateway equals, byte for byte, what a server over the cold build
// of the whole click history answers. Two in-process replicas re-open the
// serving path on every publish, as simrankd does, and the gateway's
// probes are driven by hand: pinned to the base generation first, it
// must cut over to each fold's generation before the reads. The keys are
// every query and ad of every shard — the clean shards a fold copies from
// the previous generation as well as the dirty ones it recomputes — read
// through /similar (both sides), /rewrite and /batch.
func TestGatewayAnswersEqualColdBuild(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.config()
	var (
		replicas []*serve.Server
		backends []route.BackendSpec
	)
	for range 2 {
		snap, id, err := serve.OpenServing(env.snapPath, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServer(snap, serve.DefaultServerConfig())
		srv.SetGenerationID(id)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		replicas = append(replicas, srv)
		backends = append(backends, route.BackendSpec{URL: ts.URL})
	}
	cfg.OnPublish = func(*serve.Generation) {
		for _, srv := range replicas {
			if err := srv.ReloadServing(env.snapPath, false, nil); err != nil {
				t.Errorf("replica reload: %v", err)
			}
		}
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gw, err := route.New(route.Options{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	viaGateway := gw.Handler()
	// The fleet is pinned to the base generation before the first fold,
	// so each fold's generation has to win the quorum cutover.
	gw.ProbeAll(context.Background())
	if gw.Pinned() == "" {
		t.Fatal("gateway pinned no generation over the base snapshot")
	}

	clean := 0
	foldAgainstColdBuilds(t, env, c, func(fold int, diff *partition.Diff, coldPath string) {
		clean += diff.CleanShards
		cold, err := serve.OpenSnapshot(coldPath)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		reference := serve.NewServer(cold, serve.DefaultServerConfig()).Handler()
		gw.ProbeAll(context.Background())
		if got, want := gw.Pinned(), cold.Meta().Fingerprint; got != want {
			t.Fatalf("fold %d: gateway pinned to generation %q, the cold build is %q", fold, got, want)
		}

		type read struct {
			method, target string
			body           []byte
		}
		var (
			reads []read
			batch serve.BatchRequest
		)
		for _, sh := range diff.Plan.Shards {
			for _, q := range sh.Queries {
				name := url.QueryEscape(cold.Query(q))
				reads = append(reads, read{"GET", "/similar?q=" + name, nil}, read{"GET", "/rewrite?q=" + name, nil})
				batch.Queries = append(batch.Queries, cold.Query(q))
			}
			for _, a := range sh.Ads {
				reads = append(reads, read{"GET", "/similar?ad=" + url.QueryEscape(cold.Ad(a)), nil})
			}
		}
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, read{"POST", "/batch", body})

		for _, rd := range reads {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			viaGateway.ServeHTTP(got, httptest.NewRequest(rd.method, rd.target, bytes.NewReader(rd.body)))
			reference.ServeHTTP(want, httptest.NewRequest(rd.method, rd.target, bytes.NewReader(rd.body)))
			if want.Code != http.StatusOK {
				t.Fatalf("fold %d: %s %s on the cold build: %d %q", fold, rd.method, rd.target, want.Code, want.Body)
			}
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("fold %d: %s %s through the gateway = %d %q, the cold build's server = %d %q",
					fold, rd.method, rd.target, got.Code, got.Body, want.Code, want.Body)
			}
		}
	})
	if clean == 0 {
		t.Fatal("no fold left a shard clean; the copied segments went unread")
	}
}
