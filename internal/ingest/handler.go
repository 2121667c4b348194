package ingest

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler answers POST /ingest: text click records, one per line
// (ReadRecords), appended and fsynced as one batch before the 200
// {"accepted":n} returns. A batch is taken whole or not at all, so a
// refused one can be retried as sent. Anything but POST is a 405, a
// malformed body or one over 32 MiB a 400, a batch the WAL has no room
// for until folding catches up (MaxLagRecords) a 503 with Retry-After —
// shed rather than queue unbounded durability debt; a cadence is a
// reasonable guess at when a fold will have drained some — a batch
// larger than MaxLagRecords, which never fits, a 413, and a failed
// write or fsync a 500. The daemon mounts it beside the serving
// endpoints.
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
		switch {
		case errors.Is(err, ErrBackpressure):
			w.Header().Set("Retry-After", strconv.Itoa(int(c.cfg.Cadence.Seconds())+1))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, ErrBatchTooLarge):
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"accepted\":%d}\n", n)
		}
	})
}
