package simrankpp_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/ingest"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
)

// formatGoldens are the files under testdata/formats: one of every
// on-disk and on-wire format, written once from testdata/fig3.graph and
// then frozen. Each is opened by a test in the package that owns its
// decoder (TestFormatGolden* in internal/serve and ingest), which
// checks decoded content — the gate a codec or layout change has to
// pass: files written by an older build must keep reading.
var formatGoldens = []string{
	"fig3.v3.snap",       // v3 sharded snapshot with a top-k section (simrank -method simple -sharded -shard-max-nodes 9 -save)
	"gen-00000001.mf",    // v1 generation manifest journaling fig3.v3.snap by its whole-file CRC32
	"gen-00000001.v2.mf", // v2 generation manifest journaling fig3.v3.snap by its header CRC
	"wal-00000000.seg",   // WAL segment: three records, then a torn frame
	"fold-state.bin",     // fold cursor 2 over fig3 + two folded records
}

// retiredGoldens are the goldens of format versions this build reads but
// no longer writes: TestFormatGoldensReencode has no encoder to hold them
// to, and TestFormatGoldensPresent cannot write one that is missing.
var retiredGoldens = map[string]bool{"gen-00000001.mf": true}

// TestFormatGoldensPresent fails when a golden is missing — after
// writing it with the current code, so a new format version gets its
// file by adding a name above and running this test once. Existing files
// are never rewritten: they are the older build.
func TestFormatGoldensPresent(t *testing.T) {
	dir := filepath.Join("testdata", "formats")
	var missing []string
	for _, name := range formatGoldens {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	fresh := writeFormatGoldens(t)
	for _, name := range missing {
		if retiredGoldens[name] {
			t.Fatalf("retired format golden %s is missing: this build no longer writes it; restore it from version control", name)
		}
		data, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("wrote missing format goldens %v into %s with this build's encoders: review and commit them", missing, dir)
}

// TestFormatGoldensReencode pins the encoders: this build writes every
// golden but the retired ones again and must reproduce the frozen bytes,
// apart from the fields that hold the time of writing and the CRCs over
// them.
func TestFormatGoldensReencode(t *testing.T) {
	clock := map[string][][2]int{
		"fig3.v3.snap":       {{128, 136}, {196, 200}}, // generated_at, header CRC
		"gen-00000001.v2.mf": {{40, 48}, {52, 56}},     // created-at, manifest CRC
	}
	fresh := writeFormatGoldens(t)
	for _, name := range formatGoldens {
		if retiredGoldens[name] {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", "formats", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: re-encoded to %d bytes, frozen %d", name, len(got), len(want))
			continue
		}
		for _, r := range clock[name] {
			copy(got[r[0]:r[1]], want[r[0]:r[1]])
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: byte %d re-encoded as %#02x, frozen %#02x", name, i, got[i], want[i])
				break
			}
		}
	}
}

// formatRecords are what the goldens ingest on top of fig3: a new
// disconnected component (folded), then records left in the WAL.
var formatRecords = []ingest.Record{
	{Query: "warthog", Ad: "zoo-ad", Impressions: 10, Clicks: 5, Rate: 0.5},
	{Query: "okapi", Ad: "zoo-ad", Impressions: 4, Clicks: 1, Rate: 0.25},
	{Query: "camera", Ad: "hp.com", Impressions: 3, Clicks: 2, Rate: 0.5},
}

// writeFormatGoldens produces every golden in a scratch directory the
// way the commands do and returns it.
func writeFormatGoldens(t *testing.T) string {
	t.Helper()
	out := t.TempDir()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	copyTo := func(name, from string) {
		t.Helper()
		data, err := os.ReadFile(from)
		must(err)
		must(os.WriteFile(filepath.Join(out, name), data, 0o644))
	}

	// simrank -graph testdata/fig3.graph -method simple -sharded
	// -shard-max-nodes 9 -save: the budget keeps fig3's two components in
	// a shard each. The frozen file is from when -save wrote a K = 16
	// section (it writes DefaultRewriteTopK now, with the same lists).
	g0, err := clickgraph.ReadFile(filepath.Join("testdata", "fig3.graph"))
	must(err)
	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes = 9
	plan, err := partition.BuildPlan(g0, pcfg)
	must(err)
	res, err := core.RunSharded(g0, core.DefaultConfig().WithVariant(core.Simple), plan, core.ShardOptions{})
	must(err)
	work := t.TempDir()
	serving := filepath.Join(work, "serving.snap")
	must(serve.WriteSnapshotFileTopK(serving, res, serve.TopKOptions{K: 16}))
	copyTo("fig3.v3.snap", serving)

	// The journal a first refresh or fold starts: a serving file adopted
	// as generation 1. The file is the frozen snapshot (this build's own
	// while none is frozen), so the manifest records the frozen header
	// CRC, bytes [196,200), and re-encodes with only its clock masked.
	snap, err := os.ReadFile(filepath.Join("testdata", "formats", "fig3.v3.snap"))
	if errors.Is(err, os.ErrNotExist) {
		snap, err = os.ReadFile(serving)
	}
	must(err)
	adopted := filepath.Join(work, "adopted.snap")
	must(os.WriteFile(adopted, snap, 0o644))
	gen, err := serve.NewGenerationStore(adopted).Adopt()
	must(err)
	copyTo("gen-00000001.v2.mf", filepath.Join(adopted+".gens", "gen-00000001.mf"))
	if gen.ID != 1 {
		t.Fatalf("adopted generation %d, want 1", gen.ID)
	}

	// simrankd -wal: two records folded (fold-state.bin, cursor 2).
	walDir := filepath.Join(work, "wal")
	ctl, err := ingest.NewController(ingest.Config{WALDir: walDir, SnapshotPath: serving, BaseGraph: g0})
	must(err)
	_, err = ctl.Ingest(formatRecords[:2])
	must(err)
	_, err = ctl.FoldOnce(context.Background())
	must(err)
	must(ctl.Close())
	copyTo("fold-state.bin", filepath.Join(walDir, "fold-state.bin"))

	// A WAL segment as a crash mid-append leaves it: three whole frames,
	// then the first half of the third frame again.
	tornDir := filepath.Join(work, "torn")
	wal, err := ingest.OpenLog(tornDir, ingest.LogOptions{})
	must(err)
	var sizes []int64
	for _, rec := range formatRecords {
		_, err := wal.Append(rec)
		must(err)
		must(wal.Sync())
		st, err := os.Stat(filepath.Join(tornDir, "wal-00000000.seg"))
		must(err)
		sizes = append(sizes, st.Size())
	}
	must(wal.Close())
	seg, err := os.ReadFile(filepath.Join(tornDir, "wal-00000000.seg"))
	must(err)
	last := seg[sizes[1]:sizes[2]]
	must(os.WriteFile(filepath.Join(out, "wal-00000000.seg"), append(seg, last[:len(last)/2]...), 0o644))
	return out
}
