package route

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"simrankpp/internal/serve"
)

// cannedReplica is a transport that lets probes through to a real replica
// and answers reads from memory with that replica's recorded bytes, so a
// measurement over it sees the gateway and not a socket.
type cannedReplica struct {
	probes  http.RoundTripper
	answers map[string][]byte // by path
}

func (c *cannedReplica) RoundTrip(r *http.Request) (*http.Response, error) {
	body, ok := c.answers[r.URL.Path]
	if !ok {
		return c.probes.RoundTrip(r)
	}
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		ContentLength: int64(len(body)),
		Body:          io.NopCloser(bytes.NewReader(body)),
		Request:       r,
	}, nil
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// TestGatewayAllocationsPerRead is the relay's allocation gate: what one
// relayed read costs the gateway in heap allocations, transport and
// socket excluded (the canned transport's own Response, Header and body
// reader are included: 6; so is the batch's httptest.NewRequest: 11). The
// bounds are what this code reaches on go1.24: 40 and 78, the batch 79
// under the race detector, plus the same room as the replica's gate. The
// relay that decoded the client's batch with json.Unmarshal and marshaled
// the sub-batch body measured 95; the one whose hedge.Do ran every launch
// on a goroutine of its own, with a channel and a timer channel, 45 and
// 99; the one that decoded a sub-response and re-joined it, and read every
// body twice, 51 and 143; the one that streamed answers past 256 KiB,
// keeping each winning launch's context for a release closure, 41 and 79.
func TestGatewayAllocationsPerRead(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	rep := startReplica(t, snap, 1)
	of := queryOfShard(t, snap)
	batch, _ := json.Marshal(serve.BatchRequest{Queries: append(of[:7:7], "nope"), Top: 5})
	rewrite := "/rewrite?q=" + of[0] + "&top=5"

	canned := &cannedReplica{probes: http.DefaultTransport, answers: map[string][]byte{}}
	_, canned.answers["/rewrite"] = directGet(t, rep.ts.URL+rewrite)
	_, canned.answers["/batch"] = directPost(t, rep.ts.URL, string(batch))
	gw, err := New(Options{Router: snap, Backends: []BackendSpec{{URL: rep.ts.URL}}, Transport: canned})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(context.Background())
	h := gw.Handler()

	// The relay is what it was: the canned bytes come out the other side.
	if code, _, body := get(t, h, rewrite); code != http.StatusOK || !bytes.Equal(body, canned.answers["/rewrite"]) {
		t.Fatalf("GET through the canned transport = %d %s", code, body)
	}
	if code, _, body := postBatch(t, h, string(batch)); code != http.StatusOK || !bytes.Equal(body, canned.answers["/batch"]) {
		t.Fatalf("POST through the canned transport = %d %s", code, body)
	}

	w := &discard{h: http.Header{}}
	getReq := httptest.NewRequest(http.MethodGet, rewrite, nil)
	perGet := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, getReq) })
	perBatch := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(batch)))
	})
	t.Logf("allocations: relayed GET /rewrite %.0f, relayed 8-query POST /batch %.0f", perGet, perBatch)
	const maxGet, maxBatch = 40, 81
	if perGet > maxGet {
		t.Errorf("a relayed GET /rewrite allocates %.0f times, want at most %d", perGet, maxGet)
	}
	if perBatch > maxBatch {
		t.Errorf("a relayed 8-query POST /batch allocates %.0f times, want at most %d", perBatch, maxBatch)
	}
	if n := gw.retries.Load() + gw.hedges.Load() + gw.failovers.Load(); n != 0 {
		t.Errorf("%d retries, hedges or failovers while measuring: the numbers are not one relay's", n)
	}
}
