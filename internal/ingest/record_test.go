package ingest

import (
	"strings"
	"testing"

	"simrankpp/internal/clickgraph"
)

// TestReadAndReadRecordsRefuseTheSameLines: a graph file and an /ingest
// body are read by one parser and one weight check (clickgraph.ParseEdge,
// EdgeWeights.Validate), so clickgraph.Read and ReadRecords refuse the same
// edge lines, each with the owning check's message, and accept the same
// edge cases.
func TestReadAndReadRecordsRefuseTheSameLines(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{"q\ta\t10\t5\t0.5", true},
		{"q\ta\t0\t3\t1", true}, // clicks without recorded impressions
		{"q\ta\t1\t1\t0", true},
		{"q\ta\t-1\t0\t0.5", false},
		{"q\ta\t1\t-1\t0.5", false},
		{"q\ta\t1\t2\t0.5", false},
		{"q\ta\t1\t1\t1.5", false},
		{"q\ta\t1\t1\t-0.25", false},
		{"q\ta\t1\t1\tNaN", false},
		{"q\ta\t1\t1\t+Inf", false},
		{"q\ta\tx\t1\t0.5", false},
		{"q\ta\t1\t1", false},
	} {
		_, readErr := clickgraph.Read(strings.NewReader(tc.line + "\n"))
		_, recsErr := ReadRecords(strings.NewReader(tc.line + "\n"))
		if (readErr == nil) != tc.ok || (recsErr == nil) != tc.ok {
			t.Errorf("%q: Read error %v, ReadRecords error %v; want accepted = %v", tc.line, readErr, recsErr, tc.ok)
			continue
		}
		if tc.ok {
			continue
		}
		_, _, w, want := clickgraph.ParseEdge(tc.line)
		if want == nil {
			want = w.Validate()
		}
		for _, err := range []error{readErr, recsErr} {
			if !strings.Contains(err.Error(), want.Error()) {
				t.Errorf("%q: error %q does not carry the owning check's %q", tc.line, err, want)
			}
		}
	}
}
