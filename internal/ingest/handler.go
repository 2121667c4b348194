package ingest

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler answers POST /ingest: text click records, one per line
// (ReadRecords), appended and fsynced as one batch before the 200
// {"accepted":n} returns. Anything but POST is a 405, a malformed body
// or one over 32 MiB a 400, and a WAL that has outrun folding past
// MaxLagRecords a 503 with Retry-After — shed rather than queue unbounded
// durability debt; a cadence is a reasonable guess at when a fold will
// have drained some. The daemon mounts it beside the serving endpoints.
func (c *Controller) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		recs, err := ReadRecords(http.MaxBytesReader(w, r.Body, 32<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, err := c.Ingest(recs)
		if errors.Is(err, ErrBackpressure) {
			w.Header().Set("Retry-After", strconv.Itoa(int(c.cfg.Cadence.Seconds())+1))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"accepted\":%d}\n", n)
	})
}
