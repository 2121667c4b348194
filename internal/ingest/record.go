// Package ingest closes the batch→continuous gap: a crash-safe streaming
// ingestion pipeline that tails weighted click edges into a write-ahead
// log, folds them into the click graph on a cadence or churn threshold,
// and drives the existing incremental-refresh machinery (fingerprint
// diff, dirty-shard run, clean-segment byte copy, generation
// journal) once per fold — with a durable fold cursor so replay after a
// crash is exactly-once with respect to the published generation.
//
// The package has three layers:
//
//   - Log: a segmented WAL of length-prefixed internal/frame frames, one
//     per Record (wal.go). Appends batch through one fsync per Sync call,
//     segments rotate at a size threshold, reopen truncates a torn tail,
//     and the decoder is allocation-bounded and rejects every flipped byte.
//   - fold state: one atomic CRC'd file holding the fold cursor AND the
//     folded graph as clickgraph.Write's text, which reads back with the
//     same ids (state.go), so the crash windows between "generation
//     published" and "cursor saved" resolve by replaying onto an
//     id-identical graph and observing a zero-dirty diff — never by
//     double-applying a delta.
//   - Controller: the refresh loop (controller.go) — serialized folds,
//     capped equal-jitter backoff on refresh failure, ingestion
//     backpressure when the WAL outruns folding, and bounded-staleness
//     gauges surfaced through serve.Server's /readyz and /stats.
package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"simrankpp/internal/clickgraph"
)

// Record is one weighted click-edge observation: the unit the WAL
// stores and the delta buffer folds. Semantics match
// clickgraph.EdgeWeights — Impressions and Clicks accumulate across
// records for the same (Query, Ad) pair, Rate merges as an
// impressions-weighted mean (clickgraph.Builder.AddEdge).
type Record struct {
	Query, Ad   string
	Impressions int64
	Clicks      int64
	Rate        float64
}

// Weights converts the record to the click-graph edge form.
func (r Record) Weights() clickgraph.EdgeWeights {
	return clickgraph.EdgeWeights{
		Impressions:       r.Impressions,
		Clicks:            r.Clicks,
		ExpectedClickRate: r.Rate,
	}
}

// maxNameLen bounds query/ad name lengths in the WAL — the allocation
// bound the decoder enforces before trusting a length field.
const maxNameLen = 4096

// Validate admits a record to the WAL only if it will fold cleanly later:
// its weights pass clickgraph.EdgeWeights.Validate, the check
// clickgraph.Builder.AddEdge makes at fold time, and its names are
// non-empty, within maxNameLen (the decoder's allocation bound) and
// carriable by the click-graph text the fold state saves the graph in
// (clickgraph.CheckName). Rejecting at append time means a replay can
// treat any invalid record as corruption, not bad input.
func (r Record) Validate() error {
	if err := clickgraph.CheckName(clickgraph.QuerySide, r.Query); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if err := clickgraph.CheckName(clickgraph.AdSide, r.Ad); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	switch {
	case r.Query == "":
		return errors.New("ingest: record has empty query")
	case r.Ad == "":
		return errors.New("ingest: record has empty ad")
	case len(r.Query) > maxNameLen:
		return fmt.Errorf("ingest: query name %d bytes exceeds the %d-byte bound", len(r.Query), maxNameLen)
	case len(r.Ad) > maxNameLen:
		return fmt.Errorf("ingest: ad name %d bytes exceeds the %d-byte bound", len(r.Ad), maxNameLen)
	}
	if err := r.Weights().Validate(); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// Text form: one record per line, a click-graph edge line
// (clickgraph.ParseEdge). This is the /ingest request body and the
// replayable click-log file format.

// ParseRecord parses one text line. Blank lines and '#' comments are the
// caller's concern (ReadRecords skips them).
func ParseRecord(line string) (Record, error) {
	q, ad, w, err := clickgraph.ParseEdge(line)
	if err != nil {
		return Record{}, err
	}
	r := Record{Query: q, Ad: ad, Impressions: w.Impressions, Clicks: w.Clicks, Rate: w.ExpectedClickRate}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// ReadRecords parses a stream of text-form records, skipping blank lines
// and '#' comments. Used by the /ingest endpoint and the log-replay
// tooling.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 2*maxNameLen+64)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		rec, err := ParseRecord(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
