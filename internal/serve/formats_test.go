package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// The format goldens under testdata/formats were written once (root
// formats_test.go says how) and are frozen: these tests are the gate that
// files written by an older build keep reading, content and all.

func formatGolden(name string) string { return filepath.Join("..", "..", "testdata", "formats", name) }

// TestFormatGoldenSnapshot opens the v3 sharded snapshot of fig3 and
// checks what it decodes to: dimensions, names, routing, a known score,
// and /rewrite (from the top-k section), /similar and /batch answering
// with the repository's golden responses.
func TestFormatGoldenSnapshot(t *testing.T) {
	snap, err := OpenSnapshot(formatGolden("fig3.v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.PreloadAll(); err != nil {
		t.Fatal(err)
	}
	m := snap.Meta()
	if m.NumQueries != 5 || m.NumAds != 7 || m.Shards != 2 || m.QueryPairs != 6 || m.AdPairs != 11 ||
		m.Variant.String() != "simrank" || m.Iterations != 7 || m.C1 != 0.8 || m.LastRefreshDirty != -1 ||
		m.RewriteTopK != 16 || m.RewriteTopN != 100 || m.RewriteBidFiltered {
		t.Fatalf("decoded header %+v", m)
	}
	if got := fmt.Sprintf("%016x %016x", snap.ShardFingerprint(0), snap.ShardFingerprint(1)); got != wantShardFingerprints {
		t.Errorf("shard fingerprints %s, want %s", got, wantShardFingerprints)
	}
	if m.Fingerprint != fmt.Sprintf("%016x", snap.ShardFingerprint(0)^snap.ShardFingerprint(1)) {
		t.Errorf("generation fingerprint %s is not the XOR of the shards'", m.Fingerprint)
	}
	for i, want := range []string{"pc", "camera", "digital camera", "tv", "flower"} {
		if snap.Query(i) != want {
			t.Errorf("query %d = %q, want %q", i, snap.Query(i), want)
		}
	}
	if a, ok := snap.AdID("orchids.com"); !ok || a != 6 {
		t.Errorf("ad orchids.com = %d, %v; want 6", a, ok)
	}
	_, camShard, _ := snap.PrevQuery("camera")
	_, flowerShard, _ := snap.PrevQuery("flower")
	if camShard != 0 || flowerShard != 1 {
		t.Errorf("camera in shard %d, flower in shard %d; want 0 and 1", camShard, flowerShard)
	}
	if got := snap.TopRewrites(1, 1); len(got) != 1 || got[0].Node != 2 || got[0].Score != 0.43990932569222174 {
		t.Errorf("camera's top rewrite = %v, want digital camera (2) at 0.43990932569222174", got)
	}
	if got := snap.TopRewrites(4, -1); len(got) != 0 {
		t.Errorf("flower has rewrites %v, want none (its shard holds one query)", got)
	}
	// The file opens for a daemon without a bid list, and its K = 16 (the
	// depth simrank -save wrote before it wrote 100) caps every request.
	served, _, err := OpenServing(formatGolden("fig3.v3.snap"), false, nil, nil)
	if err != nil {
		t.Fatalf("OpenServing: %v", err)
	}
	served.Close()
	srv := NewServer(snap, DefaultServerConfig())
	if d := srv.depth(40); d != 16 {
		t.Errorf("top 40 answers at depth %d, want the section's 16", d)
	}
	// The JSON surface: each answer is the repository's golden response,
	// the bytes CI's serving smoke diffs a daemon's answers against.
	h := srv.Handler()
	for _, c := range []struct{ path, post, golden string }{
		{"/rewrite?q=camera&top=3", "", "golden_rewrite_camera.json"},
		{"/similar?q=camera&top=3", "", "golden_similar_camera.json"},
		{"/similar?ad=hp.com&top=3", "", "golden_similar_ad_hp.json"},
		{"/batch", `{"queries":["camera","pc"]}`, "golden_batch_camera_pc.json"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var code int
		var body []byte
		if c.post == "" {
			code, body = get(t, h, c.path)
		} else {
			code, body = postBatch(t, h, c.post)
		}
		if code != http.StatusOK || string(body) != string(want) {
			t.Errorf("%s %s = %d %s, want %s", c.path, c.post, code, body, want)
		}
	}
}

// wantShardFingerprints are fig3's two component subgraphs as
// partition.Fingerprint hashed them when the golden was written.
const wantShardFingerprints = "0dab0f1dccecf775 5781c7945c81c123"

// TestFormatGoldenManifest decodes the manifest that journals the golden
// snapshot as generation 1 and checks it against that file.
func TestFormatGoldenManifest(t *testing.T) {
	buf, err := os.ReadFile(formatGolden("gen-00000001.mf"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := decodeManifest(buf)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(formatGolden("fig3.v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	fp, dirty, err := snapshotFingerprint(formatGolden("fig3.v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != 1 || g.Size != int64(len(snapBytes)) || g.CRC != crc32.ChecksumIEEE(snapBytes) ||
		g.Fingerprint != fp || g.DirtyShards != dirty || dirty != -1 || g.CreatedAt.Year() < 2024 {
		js, _ := json.Marshal(g)
		t.Fatalf("manifest decodes to %s; want generation 1 of the %d-byte golden snapshot (crc %08x, fingerprint %016x, full build)",
			js, len(snapBytes), crc32.ChecksumIEEE(snapBytes), fp)
	}
}
