package dist

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"simrankpp/internal/core"
)

// The two frames were taken off the wire of one fleet refresh (root
// formats_test.go says how) and frozen: a coordinator and a worker from
// different builds must keep understanding each other.

func formatGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "formats", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The (generation, shard, fingerprint) triple both frames carry: the
// shard two ingested records added to fig3's two, and the XOR of all
// three shards' fingerprints (the golden snapshot's 0dab0f1dccecf775 and
// 5781c7945c81c123 with this one).
const (
	goldenGeneration  = 0xc3417bf6b7fbdf41
	goldenShard       = 2
	goldenFingerprint = 0x996bb37f2796e917
)

// TestFormatGoldenLease decodes the lease: its idempotency key, the
// engine configuration it travels with, and the shard's subgraph.
func TestFormatGoldenLease(t *testing.T) {
	l, err := DecodeLease(formatGolden(t, "lease.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Generation != goldenGeneration || l.Shard != goldenShard || l.Fingerprint != goldenFingerprint {
		t.Errorf("lease key (%016x, %d, %016x)", l.Generation, l.Shard, l.Fingerprint)
	}
	if want := core.DefaultConfig().WithVariant(core.Simple); l.Config != want {
		t.Errorf("config %+v, want %+v", l.Config, want)
	}
	if !slices.Equal(l.QueryNames, []string{"warthog", "okapi"}) || !slices.Equal(l.AdNames, []string{"zoo-ad"}) ||
		!slices.Equal(l.QueryIDs, []int{5, 6}) || !slices.Equal(l.AdIDs, []int{7}) {
		t.Errorf("nodes %v %v / %v %v", l.QueryNames, l.QueryIDs, l.AdNames, l.AdIDs)
	}
	want := []WireEdge{{Q: 0, A: 0, Impressions: 10, Clicks: 5, Rate: 0.5}, {Q: 1, A: 0, Impressions: 4, Clicks: 1, Rate: 0.25}}
	if !slices.Equal(l.Edges, want) || len(l.WarmQuery) != 0 || len(l.WarmAd) != 0 {
		t.Errorf("edges %+v (warm %d/%d), want %+v and a cold start", l.Edges, len(l.WarmQuery), len(l.WarmAd), want)
	}
}

// TestFormatGoldenCompletion decodes the worker's answer to that lease:
// the key echoed, the run's metadata, and one query pair (warthog and
// okapi share their only ad: C2 · 1 = 0.8) in global ids.
func TestFormatGoldenCompletion(t *testing.T) {
	r, err := DecodeSegmentResponse(formatGolden(t, "completion.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation != goldenGeneration || r.Shard != goldenShard || r.Fingerprint != goldenFingerprint {
		t.Errorf("completion key (%016x, %d, %016x)", r.Generation, r.Shard, r.Fingerprint)
	}
	if r.Iterations != 7 || r.Converged || len(r.AdSeg) != 0 {
		t.Errorf("%d iterations, converged %v, %d ad-segment bytes; want 7, false, 0", r.Iterations, r.Converged, len(r.AdSeg))
	}
	pair := []byte{5, 0, 0, 0, 6, 0, 0, 0, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xe9, 0x3f} // (5, 6, 0.8)
	if !slices.Equal(r.QuerySeg, pair) || r.QueryCRC != crc32.ChecksumIEEE(pair) {
		t.Errorf("query segment % x crc %08x, want % x crc %08x", r.QuerySeg, r.QueryCRC, pair, crc32.ChecksumIEEE(pair))
	}
}
