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

// TestReadAndReadRecordsSplitLinesAlike: an /ingest body and a graph file
// share one line rule (clickgraph.ScanLines): only the line ending is
// stripped, so a name keeps the spaces around it and a record folds into
// the node the same line names in a graph file, and a number with a space
// beside it is refused by both.
func TestReadAndReadRecordsSplitLinesAlike(t *testing.T) {
	for _, tc := range []struct {
		body      string
		query, ad string // the one edge both readers yield; "" when both refuse
	}{
		{"camera\thp.com\t10\t1\t0.5\n", "camera", "hp.com"},
		{" camera \thp.com\t10\t1\t0.5\n", " camera ", "hp.com"},
		{"camera\t hp.com \t10\t1\t0.5\n", "camera", " hp.com "},
		{"camera\thp.com\t10\t1\t0.5\r\n", "camera", "hp.com"},
		{"camera\thp.com\t10\t1\t0.5", "camera", "hp.com"}, // no final newline
		{"# comment\r\n\ncamera\thp.com\t10\t1\t0.5\n#\n", "camera", "hp.com"},
		{"camera\thp.com\t10\t1\t0.5 \n", "", ""},
		{"camera\thp.com\t 10\t1\t0.5\n", "", ""},
		{" # not a comment\n", "", ""},
		{"   \n", "", ""},
		{"\tcamera\thp.com\t10\t1\t0.5\n", "", ""},
	} {
		g, readErr := clickgraph.Read(strings.NewReader(tc.body))
		recs, recsErr := ReadRecords(strings.NewReader(tc.body))
		if tc.query == "" {
			if readErr == nil || recsErr == nil {
				t.Errorf("%q: Read error %v, ReadRecords error %v; want both refused", tc.body, readErr, recsErr)
			}
			continue
		}
		if readErr != nil || recsErr != nil {
			t.Errorf("%q: Read error %v, ReadRecords error %v; want both accepted", tc.body, readErr, recsErr)
			continue
		}
		want := Record{Query: tc.query, Ad: tc.ad, Impressions: 10, Clicks: 1, Rate: 0.5}
		if len(recs) != 1 || recs[0] != want {
			t.Errorf("%q: ReadRecords = %+v, want [%+v]", tc.body, recs, want)
		}
		var edges []Record
		g.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
			edges = append(edges, Record{Query: g.Query(q), Ad: g.Ad(a), Impressions: w.Impressions, Clicks: w.Clicks, Rate: w.ExpectedClickRate})
			return true
		})
		if len(edges) != 1 || edges[0] != want {
			t.Errorf("%q: Read's edges = %+v, want [%+v]", tc.body, edges, want)
		}
	}
}
