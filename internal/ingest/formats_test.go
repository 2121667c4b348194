package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
)

// The format goldens under testdata/formats were written once (root
// formats_test.go says how) and are frozen: these tests are the gate that
// files written by an older build keep reading, content and all.

// goldenDir copies one golden into a fresh directory under the name the
// reader expects: opening a WAL repairs it in place.
func goldenDir(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "formats", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

var goldenRecords = []Record{
	{Query: "warthog", Ad: "zoo-ad", Impressions: 10, Clicks: 5, Rate: 0.5},
	{Query: "okapi", Ad: "zoo-ad", Impressions: 4, Clicks: 1, Rate: 0.25},
	{Query: "camera", Ad: "hp.com", Impressions: 3, Clicks: 2, Rate: 0.5},
}

// TestFormatGoldenWALTornTail opens a segment holding three whole frames
// and half of a fourth: the three records replay, the half frame is cut
// off at the last whole one, and the next append continues from there.
func TestFormatGoldenWALTornTail(t *testing.T) {
	dir := goldenDir(t, "wal-00000000.seg")
	seg := filepath.Join(dir, "wal-00000000.seg")
	before := fileSize(seg)
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const tornBytes = 24 // half of the 48-byte camera / hp.com frame
	if got := l.TornBytesTruncated(); got != tornBytes || fileSize(seg) != before-tornBytes {
		t.Fatalf("truncated %d torn bytes leaving %d of %d, want %d cut", got, fileSize(seg), before, tornBytes)
	}
	seqs, recs := replayAll(t, l, 0)
	if len(recs) != 3 || seqs[2] != 2 || l.NextSeq() != 3 || l.Segments() != 1 {
		t.Fatalf("replayed %d records (seqs %v), next seq %d, %d segments; want 3, next 3, 1", len(recs), seqs, l.NextSeq(), l.Segments())
	}
	for i, want := range goldenRecords {
		if recs[i] != want {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want)
		}
	}
	if seq, err := l.Append(goldenRecords[0]); err != nil || seq != 3 {
		t.Fatalf("append after the repair = seq %d, %v; want 3", seq, err)
	}
}

// TestFormatGoldenFoldState loads the cursor a fold of the first two
// golden records left: sequence 2 over fig3 plus the new component, in
// the intern order the snapshot's shard fingerprints assume.
func TestFormatGoldenFoldState(t *testing.T) {
	st, err := LoadFoldState(goldenDir(t, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	g := st.Graph
	if st.Seq != 2 || g.NumQueries() != 7 || g.NumAds() != 8 || g.NumEdges() != 14 {
		t.Fatalf("cursor %d over %d queries, %d ads, %d edges; want 2 over 7, 8, 14", st.Seq, g.NumQueries(), g.NumAds(), g.NumEdges())
	}
	if st.Fingerprint != partition.GraphFingerprint(g) {
		t.Errorf("recorded fingerprint %016x is not the decoded graph's", st.Fingerprint)
	}
	if g.Query(0) != "pc" || g.Query(4) != "flower" || g.Query(5) != "warthog" || g.Query(6) != "okapi" || g.Ad(7) != "zoo-ad" {
		t.Errorf("intern order: queries %v, ads %v", g.Queries(), g.Ads())
	}
	var okapi clickgraph.EdgeWeights
	g.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
		if q == 6 && a == 7 {
			okapi = w
		}
		return true
	})
	if okapi != goldenRecords[1].Weights() {
		t.Errorf("okapi → zoo-ad carries %+v, want %+v", okapi, goldenRecords[1].Weights())
	}
}
