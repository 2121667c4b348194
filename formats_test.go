package simrankpp_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/dist"
	"simrankpp/internal/ingest"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
)

// formatGoldens are the files under testdata/formats: one of every
// on-disk and on-wire format, written once from testdata/fig3.graph and
// then frozen. Each is opened by a test in the package that owns its
// decoder (TestFormatGolden* in internal/serve, ingest and dist), which
// checks decoded content — the gate a codec or layout change has to
// pass: files written by an older build must keep reading.
var formatGoldens = []string{
	"fig3.v3.snap",     // v3 sharded snapshot with a top-k section (simrank -method simple -sharded -shard-max-nodes 9 -save)
	"gen-00000001.mf",  // the generation manifest that journals fig3.v3.snap
	"wal-00000000.seg", // WAL segment: three records, then a torn frame
	"fold-state.bin",   // fold cursor 2 over fig3 + two folded records
	"lease.bin",        // dist lease for the shard those records created
	"completion.bin",   // the worker's completion frame for that lease
}

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
// golden again and must reproduce the frozen bytes, apart from the fields
// that hold the time of writing and the CRCs over them.
func TestFormatGoldensReencode(t *testing.T) {
	clock := map[string][][2]int{
		"fig3.v3.snap":    {{128, 136}, {196, 200}}, // generated_at, header CRC
		"gen-00000001.mf": {{40, 48}, {52, 56}},     // created-at, manifest CRC
	}
	fresh := writeFormatGoldens(t)
	for _, name := range formatGoldens {
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
	res, err := core.RunSharded(g0, core.DefaultConfig().WithVariant(core.Simple), plan, core.ShardOptions{RetainShardScores: true})
	must(err)
	work := t.TempDir()
	serving := filepath.Join(work, "serving.snap")
	must(serve.WriteSnapshotFileTopK(serving, res, serve.TopKOptions{K: 16}))
	copyTo("fig3.v3.snap", serving)

	// The journal a first refresh or fold starts: the serving file adopted
	// as generation 1.
	gs := serve.NewGenerationStore(serving)
	gen, err := gs.Adopt()
	must(err)
	copyTo("gen-00000001.mf", filepath.Join(serving+".gens", "gen-00000001.mf"))
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
	state, err := ingest.LoadFoldState(walDir)
	must(err)

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

	// simrank -refresh -workers: the folded graph against the day-0
	// snapshot, one dirty shard leased to a worker; the frames are taken
	// off the wire.
	prev, err := serve.OpenSnapshot(filepath.Join(out, "fig3.v3.snap"))
	must(err)
	defer prev.Close()
	diff, err := partition.DiffPlans(prev, state.Graph)
	must(err)
	worker := httptest.NewServer((&dist.Worker{}).Handler())
	defer worker.Close()
	tap := &wireTap{}
	_, err = dist.NewCoordinator([]string{worker.URL}, dist.Options{Transport: tap, Logf: t.Logf}).Run(context.Background(), state.Graph, prev, diff.Plan, diff.Dirty)
	must(err)
	if len(tap.leases) != 1 {
		t.Fatalf("%d leases on the wire, want 1 (one dirty shard)", len(tap.leases))
	}
	must(os.WriteFile(filepath.Join(out, "lease.bin"), tap.leases[0], 0o644))
	must(os.WriteFile(filepath.Join(out, "completion.bin"), tap.completions[0], 0o644))
	return out
}

// wireTap records every request and response body it carries.
type wireTap struct {
	leases, completions [][]byte
}

func (w *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(answer))
	w.leases = append(w.leases, body)
	w.completions = append(w.completions, answer)
	return resp, nil
}
