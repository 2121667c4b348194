package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Generation-store tests: the crash half of the fault-tolerance story.
// A refresh killed at any injected checkpoint must leave the previous
// generation intact and loadable, sweepable debris at worst, and a
// rollback path that restores byte-identical serving.

// genFixture is the generation corpus the tests share: gen1 is the
// baseline snapshot, gen2 and gen3 refresh-shaped successors with
// churned cluster scores (so snapshot bytes and /rewrite bodies
// distinguish every generation).
type genFixture struct {
	gen1, gen2, gen3 []byte
	fp1, fp2, fp3    uint64
}

func buildGenFixture(t *testing.T) genFixture {
	t.Helper()
	fp := func(snap *Snapshot) uint64 {
		var x uint64
		for i := 0; i < snap.NumShards(); i++ {
			x ^= snap.ShardFingerprint(i)
		}
		return x
	}
	_, b1, s1 := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), refreshCfg())
	_, b2, s2 := buildGeneration(t, refreshGraph(t, [4]int{9, 2, 3, 4}), refreshCfg())
	_, b3, s3 := buildGeneration(t, refreshGraph(t, [4]int{9, 7, 3, 4}), refreshCfg())
	if bytes.Equal(b1, b2) || bytes.Equal(b2, b3) {
		t.Fatal("fixture generations are byte-identical; churn seed had no effect")
	}
	return genFixture{gen1: b1, gen2: b2, gen3: b3, fp1: fp(s1), fp2: fp(s2), fp3: fp(s3)}
}

// servingDir lays out a serving path holding gen1 with its generation
// adopted, as the first managed refresh would find it.
func servingDir(t *testing.T, fx genFixture) (path string, gs *GenerationStore, adopted *Generation) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "scores.snap")
	if err := os.WriteFile(path, fx.gen1, 0o644); err != nil {
		t.Fatal(err)
	}
	gs = NewGenerationStore(path)
	adopted, err := gs.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if adopted == nil || adopted.ID != 1 {
		t.Fatalf("Adopt() = %+v, want generation 1", adopted)
	}
	return path, gs, adopted
}

// commitAndPublish runs the write half of a refresh: journal gen2 and
// re-point serving at it.
func commitAndPublish(gs *GenerationStore, fx genFixture) (*Generation, error) {
	return commitPublishBytes(gs, fx.gen2, fx.fp2)
}

// commitPublishBytes journals data as a new generation and re-points
// serving at it. It writes in two chunks, back half first, as the real
// assembler writes regions at their offsets — which is also what arms the
// mid-write (torn second write) crash.
func commitPublishBytes(gs *GenerationStore, data []byte, fp uint64) (*Generation, error) {
	g, err := gs.Commit(1, fp, func(w io.WriterAt) error {
		half := len(data) / 2
		if _, werr := w.WriteAt(data[half:], int64(half)); werr != nil {
			return werr
		}
		_, werr := w.WriteAt(data[:half], 0)
		return werr
	}, nil)
	if err != nil {
		return nil, err
	}
	return g, gs.Publish(g)
}

// headerCRC is a snapshot's sealed header CRC, the identity a manifest
// records.
func headerCRC(snap []byte) uint32 {
	return binary.LittleEndian.Uint32(snap[headerSize-4 : headerSize])
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func globTemps(t *testing.T, dirs ...string) []string {
	t.Helper()
	var out []string
	for _, d := range dirs {
		m, err := filepath.Glob(filepath.Join(d, "*.tmp*"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	return out
}

// journalNames lists the journal directory.
func journalNames(t *testing.T, gs *GenerationStore) []string {
	t.Helper()
	entries, err := os.ReadDir(gs.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// renameOver replaces path with data the way the journal's contract
// allows: a whole file renamed over it, never an in-place write.
func renameOver(t *testing.T, path string, data []byte) {
	t.Helper()
	next := path + ".next"
	if err := os.WriteFile(next, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationCrashAtEveryCheckpoint kills the refresh at each
// injected point and asserts the crash contract: the serving file is
// untouched and still opens, the previous generation verifies, debris
// is swept when the next run takes the lock, and that next run completes
// the refresh and can still roll back to generation 1. The last case
// tears a real multi-shard refresh (crashMidWriteRefresh).
func TestGenerationCrashAtEveryCheckpoint(t *testing.T) {
	fx := buildGenFixture(t)
	stages := []string{
		"commit:mid-write",    // torn snapshot write
		"commit:pre-rename",   // full temp, never renamed
		"commit:post-snap",    // snapshot renamed, no manifest
		"manifest:mid-write",  // manifest temp written, never synced
		"manifest:pre-rename", // full manifest temp, never renamed
		"publish:pre-rename",  // link debris beside serving path
	}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			path, gs, adopted := servingDir(t, fx)
			gs.failAt = stage
			_, err := commitAndPublish(gs, fx)
			if !errors.Is(err, errCrashInjected) {
				t.Fatalf("crash at %s: err = %v, want injected crash", stage, err)
			}

			// The serving path never saw the crash: byte-identical and
			// openable.
			if got := readFile(t, path); !bytes.Equal(got, fx.gen1) {
				t.Fatal("serving file changed across a crashed refresh")
			}
			if snap, err := OpenSnapshot(path); err != nil {
				t.Fatalf("serving file no longer opens: %v", err)
			} else {
				snap.Close()
			}
			// The previous generation still verifies end to end.
			if err := gs.verify(adopted); err != nil {
				t.Fatalf("previous generation no longer verifies: %v", err)
			}

			// The next run sweeps the debris when it takes the lock…
			recovered := NewGenerationStore(path)
			release, swept, err := recovered.Lock()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			if swept == 0 {
				t.Fatalf("crash at %s left no debris to sweep", stage)
			}
			if temps := globTemps(t, gs.dir, filepath.Dir(path)); len(temps) != 0 {
				t.Fatalf("temps remain after sweep: %v", temps)
			}
			snaps, err := filepath.Glob(filepath.Join(gs.dir, "gen-*"+genSnapSuffix))
			if err != nil {
				t.Fatal(err)
			}
			for _, snap := range snaps {
				if _, err := os.Stat(strings.TrimSuffix(snap, genSnapSuffix) + genManifSuffix); err != nil {
					t.Fatalf("generation snapshot without a manifest remains after sweep: %s (%v)", snap, err)
				}
			}
			// …and LastGood never trusts a half-committed generation: only
			// a crash after the manifest landed (publish:pre-rename) may
			// report gen 2.
			lg, err := recovered.LastGood()
			if err != nil {
				t.Fatalf("no good generation after crash at %s: %v", stage, err)
			}
			wantCRC := headerCRC(fx.gen1)
			if stage == "publish:pre-rename" {
				wantCRC = headerCRC(fx.gen2)
			}
			if lg.CRC != wantCRC {
				t.Fatalf("LastGood after crash at %s = generation %d (crc %08x), want crc %08x",
					stage, lg.ID, lg.CRC, wantCRC)
			}

			// The retried refresh completes (with fresh content — the
			// re-run refreshed a newer graph)…
			g2, err := commitPublishBytes(recovered, fx.gen3, fx.fp3)
			if err != nil {
				t.Fatalf("retried refresh after crash at %s: %v", stage, err)
			}
			if got := readFile(t, path); !bytes.Equal(got, fx.gen3) {
				t.Fatal("retried refresh did not publish its generation")
			}
			if g2.ID <= adopted.ID {
				t.Fatalf("retried refresh got generation id %d, want > %d", g2.ID, adopted.ID)
			}
			// …and rollback from it restores generation 1 byte for byte.
			rb, err := recovered.Rollback()
			if err != nil {
				t.Fatal(err)
			}
			if stage == "publish:pre-rename" {
				// Generation 2 was fully journaled before this crash, so
				// the retried refresh became generation 3 and one rollback
				// step lands on 2; a second reaches the original.
				if rb.ID != g2.ID-1 {
					t.Fatalf("first rollback restored generation %d, want %d", rb.ID, g2.ID-1)
				}
				if rb, err = recovered.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
			if rb.ID != adopted.ID {
				t.Fatalf("rollback restored generation %d, want %d", rb.ID, adopted.ID)
			}
			if got := readFile(t, path); !bytes.Equal(got, fx.gen1) {
				t.Fatal("rollback did not restore generation 1 byte-identically")
			}
		})
	}
	t.Run("refresh/commit:mid-write", func(t *testing.T) { crashMidWriteRefresh(t, fx) })
}

// crashMidWriteRefresh is the torn-write case driven by a real refresh
// instead of the two-chunk stub: half the shards dirty, several shard
// workers writing the journal temp in place when the first write's hook
// kills the commit. The serving file is untouched, the torn temp is swept
// by the next lock, and the next refresh completes and journals the
// header CRC of the file it published.
func crashMidWriteRefresh(t *testing.T, fx genFixture) {
	path, gs, adopted := servingDir(t, fx)
	churned := refreshGraph(t, [4]int{9, 7, 3, 4})
	gs.failAt = "commit:mid-write"
	out, err := Refresh(t.Context(), gs, churned, 4, nil, nil)
	if !errors.Is(err, errCrashInjected) {
		t.Fatalf("refresh crashed mid-write: err = %v, want injected crash", err)
	}
	if out.Diff == nil || out.Diff.DirtyShards < 2 || out.Diff.CleanShards == 0 {
		t.Fatalf("fixture should mix several dirty shards with clean ones: %+v", out.Diff)
	}
	if got := readFile(t, path); !bytes.Equal(got, fx.gen1) {
		t.Fatal("serving file changed across a refresh that crashed mid-write")
	}
	if err := gs.verify(adopted); err != nil {
		t.Fatalf("previous generation no longer verifies: %v", err)
	}
	if temps := globTemps(t, gs.dir); len(temps) == 0 {
		t.Fatal("the crash left no torn temp in the journal")
	}

	recovered := NewGenerationStore(path)
	release, swept, err := recovered.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if swept == 0 {
		t.Fatal("the next lock swept nothing")
	}
	if temps := globTemps(t, gs.dir, filepath.Dir(path)); len(temps) != 0 {
		t.Fatalf("temps remain after sweep: %v", temps)
	}
	out, err = Refresh(t.Context(), recovered, churned, 4, nil, nil)
	if err != nil {
		t.Fatalf("refresh after the crash: %v", err)
	}
	if out.Published == nil || out.Published.ID <= adopted.ID {
		t.Fatalf("refresh after the crash published %+v", out.Published)
	}
	crc, size, err := snapshotIdentity(path)
	if err != nil {
		t.Fatal(err)
	}
	if crc != out.Published.CRC || size != out.Published.Size {
		t.Fatalf("serving file crc %08x size %d, journaled crc %08x size %d", crc, size, out.Published.CRC, out.Published.Size)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.PreloadAll(); err != nil {
		t.Fatalf("the refreshed snapshot does not verify: %v", err)
	}
}

// TestGenerationRollbackByteIdenticalRewrite is the serving half of the
// crash contract: refresh to generation 2, roll back, reload (what
// SIGHUP triggers) — the /rewrite body must be byte-identical to what
// generation 1 served before the refresh.
func TestGenerationRollbackByteIdenticalRewrite(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, _ := servingDir(t, fx)

	open := func() (ScoreIndex, error) { return OpenSnapshot(path) }
	fallback := func() (ScoreIndex, error) {
		g, err := NewGenerationStore(path).LastGood()
		if err != nil {
			return nil, err
		}
		return OpenSnapshot(g.SnapPath)
	}
	retire := func(old ScoreIndex) {
		if c, ok := old.(*Snapshot); ok {
			c.Close()
		}
	}
	idx, err := open()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(idx, DefaultServerConfig())
	h := srv.Handler()

	// A cluster-0 query scores differently across the two generations.
	url := rewriteURL("c0-q0")
	code, before := get(t, h, url)
	if code != http.StatusOK {
		t.Fatalf("baseline rewrite = %d: %s", code, before)
	}

	if _, err := commitAndPublish(gs, fx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(open, fallback, retire, nil); err != nil {
		t.Fatal(err)
	}
	_, during := get(t, h, url)
	if bytes.Equal(before, during) {
		t.Fatal("generation 2 serves the same bytes as generation 1; fixture churn is invisible")
	}

	if _, err := gs.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(open, fallback, retire, nil); err != nil {
		t.Fatal(err)
	}
	code, after := get(t, h, url)
	if code != http.StatusOK {
		t.Fatalf("post-rollback rewrite = %d: %s", code, after)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("post-rollback rewrite differs from pre-refresh:\n before %s\n after  %s", before, after)
	}
}

// TestGenerationReloadFallsBackWhenServingCorrupt covers the daemon-side
// net: the serving file is corrupt at reload time, so Reload's fallback
// serves the last good journaled generation instead of wedging.
func TestGenerationReloadFallsBackWhenServingCorrupt(t *testing.T) {
	fx := buildGenFixture(t)
	path, _, _ := servingDir(t, fx)

	idx, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(idx, DefaultServerConfig())
	h := srv.Handler()
	_, before := get(t, h, rewriteURL("c0-q0"))

	// The batch side "replaces" the serving file with garbage. Replacement
	// is by rename, never an in-place write — the serving file may be a
	// hardlink into the journal, so an in-place write would corrupt the
	// journaled generation too (the store's single-writer contract).
	renameOver(t, path, []byte("not a snapshot"))
	open := func() (ScoreIndex, error) { return OpenSnapshot(path) }
	fallback := func() (ScoreIndex, error) {
		g, err := NewGenerationStore(path).LastGood()
		if err != nil {
			return nil, err
		}
		return OpenSnapshot(g.SnapPath)
	}
	if err := srv.Reload(open, fallback, nil, nil); err != nil {
		t.Fatalf("Reload with good fallback returned %v", err)
	}
	if srv.reloadFailures.Load() != 1 {
		t.Fatalf("reload failures = %d, want 1", srv.reloadFailures.Load())
	}
	code, after := get(t, h, rewriteURL("c0-q0"))
	if code != http.StatusOK || !bytes.Equal(before, after) {
		t.Fatalf("fallback generation serves %d / %s, want identical to pre-corruption body", code, after)
	}

	// The next refresh's open repairs the file itself for later direct
	// opens.
	snap, g, err := NewGenerationStore(path).openServing()
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if g == nil {
		t.Fatal("openServing did not restore a corrupt serving file")
	}
	if got := readFile(t, path); !bytes.Equal(got, fx.gen1) {
		t.Fatal("openServing did not restore generation 1 bytes")
	}
	// On a healthy file it restores nothing.
	snap, g, err = NewGenerationStore(path).openServing()
	if err != nil || g != nil {
		t.Fatalf("openServing on healthy file restored %v (err %v); want nothing", g, err)
	}
	snap.Close()
}

// TestGenerationAdoptIsIdempotent: adopting an already-journaled serving
// file reuses the matching generation instead of duplicating it.
func TestGenerationAdoptIsIdempotent(t *testing.T) {
	fx := buildGenFixture(t)
	_, gs, adopted := servingDir(t, fx)
	again, err := gs.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != adopted.ID {
		t.Fatalf("second Adopt() = generation %d, want %d", again.ID, adopted.ID)
	}
	gens, err := gs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("List() has %d generations after double adopt, want 1", len(gens))
	}
}

// TestGenerationAdoptPicksNewestMatch: when two generations hold the
// serving file's bytes (a refresh republished generation 1's bytes as
// generation 3), Adopt returns the newest, the one Rollback takes for the
// serving generation, so the two agree on what is served.
func TestGenerationAdoptPicksNewestMatch(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, adopted := servingDir(t, fx)
	if _, err := commitAndPublish(gs, fx); err != nil {
		t.Fatal(err)
	}
	g3, err := commitPublishBytes(gs, fx.gen1, fx.fp1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gs.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != g3.ID || g3.ID == adopted.ID {
		t.Fatalf("Adopt() = generation %d, want %d (the newest holding the serving bytes, not %d)", got.ID, g3.ID, adopted.ID)
	}
	rb, err := gs.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if rb.ID != g3.ID-1 || !bytes.Equal(readFile(t, path), fx.gen2) {
		t.Fatalf("Rollback() restored generation %d, want %d", rb.ID, g3.ID-1)
	}
}

// TestGenerationAdoptReplacesOrphanSnapshot: a crash between a commit's
// snapshot rename and its manifest leaves gen-2.snap with no manifest.
// When new bytes are then renamed over the serving path, adopting them
// takes id 2 and must journal those bytes under it — not keep the
// orphan's, which would give a generation that never verifies, so
// -rollback could not return to that serving state.
func TestGenerationAdoptReplacesOrphanSnapshot(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, _ := servingDir(t, fx)
	gs.failAt = "commit:post-snap"
	if _, err := commitAndPublish(gs, fx); !errors.Is(err, errCrashInjected) {
		t.Fatalf("crash at commit:post-snap: err = %v, want injected crash", err)
	}
	gs.failAt = ""
	renameOver(t, path, fx.gen3)

	adopted, err := gs.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if adopted.ID != 2 {
		t.Fatalf("Adopt() = generation %d, want 2 (the orphan's id)", adopted.ID)
	}
	if err := gs.verify(adopted); err != nil {
		t.Fatalf("adopted generation does not verify: %v", err)
	}
	if _, err := commitPublishBytes(gs, fx.gen2, fx.fp2); err != nil {
		t.Fatal(err)
	}
	rb, err := gs.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if rb.ID != adopted.ID || !bytes.Equal(readFile(t, path), fx.gen3) {
		t.Fatalf("Rollback() restored generation %d, want %d serving the adopted bytes", rb.ID, adopted.ID)
	}
}

// TestGenerationLastGoodSkipsCorrupt: a generation whose snapshot no
// longer matches its manifest is skipped by LastGood, and a corrupt
// manifest drops the generation from List entirely.
func TestGenerationLastGoodSkipsCorrupt(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, adopted := servingDir(t, fx)
	g2, err := commitAndPublish(gs, fx)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte deep in gen2's journaled snapshot: manifest CRC check
	// must disqualify it.
	snapBytes := readFile(t, g2.SnapPath)
	snapBytes[len(snapBytes)/2] ^= 0xff
	if err := os.WriteFile(g2.SnapPath, snapBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := gs.LastGood()
	if err != nil {
		t.Fatal(err)
	}
	if lg.ID != adopted.ID {
		t.Fatalf("LastGood() = generation %d with gen %d corrupt, want %d", lg.ID, g2.ID, adopted.ID)
	}

	// Corrupt gen2's manifest too: it vanishes from List.
	mf := readFile(t, gs.manifName(g2.ID))
	mf[20] ^= 0xff
	if err := os.WriteFile(gs.manifName(g2.ID), mf, 0o644); err != nil {
		t.Fatal(err)
	}
	gens, err := gs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].ID != adopted.ID {
		t.Fatalf("List() = %+v with gen %d manifest corrupt, want only generation %d", gens, g2.ID, adopted.ID)
	}

	// Rollback with the serving file corrupt as well restores gen 1
	// (replacement by rename — see the single-writer contract).
	renameOver(t, path, []byte("garbage"))
	rb, err := gs.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if rb.ID != adopted.ID || !bytes.Equal(readFile(t, path), fx.gen1) {
		t.Fatalf("Rollback() restored generation %d, want %d byte-identical", rb.ID, adopted.ID)
	}
}

// TestGenerationAdoptedDamageNeverGood: a serving file whose header
// still seals but one of whose score segments or top-k blobs has a
// flipped byte is adopted (Adopt reads the header alone), and LastGood
// never returns it: "good" is verified end to end, through the directory
// CRCs the header seals.
func TestGenerationAdoptedDamageNeverGood(t *testing.T) {
	fx := buildGenFixture(t)
	snap, err := NewSnapshot(bytes.NewReader(fx.gen1), int64(len(fx.gen1)))
	if err != nil {
		t.Fatal(err)
	}
	e := snap.dir[0]
	if e.qPairs == 0 || e.tkLen == 0 {
		t.Fatalf("shard 0 holds %d query pairs and a %d-byte top-k blob; the fixture needs both", e.qPairs, e.tkLen)
	}
	for _, c := range []struct {
		side string
		at   uint64
	}{{"query segment", e.qOff + pairRecordSize/2}, {"topk blob", e.tkOff + e.tkLen - 1}} {
		t.Run(c.side, func(t *testing.T) {
			damaged := bytes.Clone(fx.gen1)
			damaged[c.at] ^= 0x40
			path := filepath.Join(t.TempDir(), "scores.snap")
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			gs := NewGenerationStore(path)
			g, err := gs.Adopt()
			if err != nil || g == nil || g.ID != 1 {
				t.Fatalf("Adopt() = %+v, %v; want generation 1", g, err)
			}
			if lg, err := gs.LastGood(); err == nil {
				t.Fatalf("LastGood() = generation %d, whose %s has a flipped byte", lg.ID, c.side)
			}
		})
	}
}

// TestGenerationHeaderNamesTheFile: a file with generation 1's body but
// a different header (its generated_at moved and the header resealed) is
// another generation. The header's own CRC trails it, so a CRC over the
// whole file cannot tell the two apart; the header CRC does. Adopt
// journals it as generation 2, and Rollback restores generation 1's
// bytes.
func TestGenerationHeaderNamesTheFile(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, adopted := servingDir(t, fx)
	moved := bytes.Clone(fx.gen1)
	binary.LittleEndian.PutUint64(moved[128:136], binary.LittleEndian.Uint64(moved[128:136])+1) // generated_at
	binary.LittleEndian.PutUint32(moved[headerSize-4:], crc32.ChecksumIEEE(moved[:headerSize-4]))
	if crc32.ChecksumIEEE(moved) != crc32.ChecksumIEEE(fx.gen1) || headerCRC(moved) == headerCRC(fx.gen1) {
		t.Fatal("the resealed file should share generation 1's whole-file CRC and differ in its header CRC")
	}
	renameOver(t, path, moved)

	g, err := gs.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != adopted.ID+1 {
		t.Fatalf("Adopt() = generation %d, want %d (a new header is a new generation)", g.ID, adopted.ID+1)
	}
	rb, err := gs.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if rb.ID != adopted.ID || !bytes.Equal(readFile(t, path), fx.gen1) {
		t.Fatalf("Rollback() restored generation %d, want %d with its bytes", rb.ID, adopted.ID)
	}
}

// TestGenerationRollbackRepairsDamagedServing: a serving file with
// generation 2's header but a flipped segment byte (a damaged copy
// renamed over the path) is not generation 2 to Rollback, which restores
// the newest good generation, 2 itself, instead of stepping back to 1.
func TestGenerationRollbackRepairsDamagedServing(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, _ := servingDir(t, fx)
	g2, err := commitAndPublish(gs, fx)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(bytes.NewReader(fx.gen2), int64(len(fx.gen2)))
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Clone(fx.gen2)
	damaged[snap.dir[0].qOff+pairRecordSize/2] ^= 0x40
	renameOver(t, path, damaged)
	rb, err := gs.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if rb.ID != g2.ID || !bytes.Equal(readFile(t, path), fx.gen2) {
		t.Fatalf("Rollback() restored generation %d, want %d with its bytes", rb.ID, g2.ID)
	}
}

// TestGenerationPrune: only the newest keep generations survive, and
// pruning never touches the serving file.
func TestGenerationPrune(t *testing.T) {
	fx := buildGenFixture(t)
	path := filepath.Join(t.TempDir(), "scores.snap")
	if err := os.WriteFile(path, fx.gen1, 0o644); err != nil {
		t.Fatal(err)
	}
	gs := NewGenerationStore(path)
	gs.keep = 2
	if _, err := gs.Adopt(); err != nil {
		t.Fatal(err)
	}
	if _, err := commitAndPublish(gs, fx); err != nil {
		t.Fatal(err)
	}
	// A third generation (back to gen1 content — content may repeat, ids
	// must not).
	g3, err := gs.Commit(1, fx.fp1, func(w io.WriterAt) error {
		_, werr := w.WriteAt(fx.gen1, 0)
		return werr
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.Publish(g3); err != nil {
		t.Fatal(err)
	}

	removed, err := gs.Prune()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("Prune() removed %d generations, want 1", removed)
	}
	gens, err := gs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0].ID != 2 || gens[1].ID != 3 {
		t.Fatalf("List() after prune = %+v, want generations 2 and 3", gens)
	}
	if _, err := os.Stat(gs.snapName(1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pruned generation 1 snapshot still exists (err %v)", err)
	}
	if got := readFile(t, path); !bytes.Equal(got, fx.gen1) {
		t.Fatal("Prune touched the serving file")
	}
	// Serving still matches a journaled generation (g3 has gen1's bytes),
	// so rollback remains possible.
	if lg, err := gs.LastGood(); err != nil || lg.ID != 3 {
		t.Fatalf("LastGood() after prune = %+v, %v", lg, err)
	}
}
