package ingest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestHandler walks POST /ingest's answers over one controller, in the
// order that fills its WAL: wrong method, a malformed line, an accepted
// batch (which must be in the WAL when the 200 returns), and a batch that
// would cross MaxLagRecords, of which nothing is appended.
func TestHandler(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.config()
	cfg.MaxLagRecords = 3
	cfg.Cadence = 2 * time.Second
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handler()

	const two = "warthog\tzoo-ad\t10\t5\t0.5\n# a comment\nokapi\tzoo-ad\t4\t1\t0.25\n"
	for _, tc := range []struct {
		name, method, body string
		code               int
		reply, retryAfter  string
		walRecords         int
	}{
		{"GET is refused", http.MethodGet, "", http.StatusMethodNotAllowed, "POST only\n", "", 0},
		{"malformed line", http.MethodPost, "warthog\tzoo-ad\t10\n", http.StatusBadRequest, "line 1: ", "", 0},
		{"accepted batch", http.MethodPost, two, http.StatusOK, "{\"accepted\":2}\n", "", 2},
		{"WAL past MaxLagRecords", http.MethodPost, two, http.StatusServiceUnavailable, ErrBackpressure.Error(), "3", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, "/ingest", strings.NewReader(tc.body)))
			if rec.Code != tc.code || !strings.HasPrefix(rec.Body.String(), tc.reply) {
				t.Fatalf("answered %d %q, want %d %q…", rec.Code, rec.Body.String(), tc.code, tc.reply)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q (cadence + 1)", got, tc.retryAfter)
			}
			if tc.code == http.StatusOK && rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("Content-Type = %q", rec.Header().Get("Content-Type"))
			}
			_, recs := replayAll(t, c.log, 0)
			if len(recs) != tc.walRecords {
				t.Fatalf("WAL holds %d records, want %d", len(recs), tc.walRecords)
			}
			if len(recs) >= 2 && (recs[0] != Record{"warthog", "zoo-ad", 10, 5, 0.5} || recs[1] != Record{"okapi", "zoo-ad", 4, 1, 0.25}) {
				t.Fatalf("WAL holds %+v, not the posted records", recs[:2])
			}
		})
	}
	if st := c.Stats(); st.BackpressureRejects != 1 {
		t.Errorf("backpressure rejects = %d, want 1", st.BackpressureRejects)
	}
}

// TestHandlerBatchAllOrNothing: POST /ingest takes a batch whole or not at
// all, so a client's retry never appends a record twice. Under a WAL bound
// of three, five records never fit (413, none appended); split, three go
// in and the other two bounce with 503, appending nothing; after a fold
// their retry goes in once, and the WAL holds the five records exactly. A
// failed fsync is the server's fault, a 500.
func TestHandlerBatchAllOrNothing(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.config()
	cfg.MaxLagRecords = 3
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handler()
	recs := env.records(0, 5)
	post := func(batch []Record, code, walRecords int) {
		t.Helper()
		var body strings.Builder
		for _, r := range batch {
			fmt.Fprintf(&body, "%s\t%s\t%d\t%d\t%g\n", r.Query, r.Ad, r.Impressions, r.Clicks, r.Rate)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body.String())))
		if rec.Code != code {
			t.Fatalf("POST of %d records answered %d %q, want %d", len(batch), rec.Code, rec.Body.String(), code)
		}
		if walRecords < 0 {
			return
		}
		if _, got := replayAll(t, c.log, 0); !slices.Equal(got, recs[:walRecords]) {
			t.Fatalf("after a %d: WAL holds %d records, want the first %d posted", code, len(got), walRecords)
		}
	}
	post(recs, http.StatusRequestEntityTooLarge, 0)
	post(recs[:3], http.StatusOK, 3)
	post(recs[3:], http.StatusServiceUnavailable, 3)
	if _, err := c.FoldOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	post(recs[3:], http.StatusOK, 5)

	if err := c.log.Close(); err != nil {
		t.Fatal(err)
	}
	post(recs[:1], http.StatusInternalServerError, -1)
}
