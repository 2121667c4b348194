package ingest

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandler walks POST /ingest's answers over one controller, in the
// order that fills its WAL: wrong method, a malformed line, an accepted
// batch (which must be in the WAL when the 200 returns), and a batch that
// crosses MaxLagRecords.
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
		{"WAL past MaxLagRecords", http.MethodPost, two, http.StatusServiceUnavailable, ErrBackpressure.Error(), "3", 3},
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
