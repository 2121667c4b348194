package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// replaceWith renames a file holding data over path: the serving path and
// journaled snapshots may be hardlinks of one another, so an in-place
// write would change both.
func replaceWith(t *testing.T, path string, data []byte) {
	t.Helper()
	next := path + ".next"
	if err := os.WriteFile(next, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
}

// TestOpenServing covers the four outcomes of opening what a daemon
// serves: a healthy journaled file, a corrupt file beside a journal, a
// file with no journal, and nothing that opens at all.
func TestOpenServing(t *testing.T) {
	fx := buildGenFixture(t)
	hex := func(fp uint64) string { return fmt.Sprintf("%016x", fp) }

	t.Run("journaled file reports its generation id", func(t *testing.T) {
		path, gs, _ := servingDir(t, fx)
		if _, err := commitAndPublish(gs, fx); err != nil {
			t.Fatal(err)
		}
		snap, id, err := OpenServing(path, true, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if id != 2 || snap.Meta().Fingerprint != hex(fx.fp2) {
			t.Fatalf("opened generation %d fingerprint %s, want 2 / %s", id, snap.Meta().Fingerprint, hex(fx.fp2))
		}
	})

	t.Run("corrupt file falls back to the last good generation and its id", func(t *testing.T) {
		path, gs, _ := servingDir(t, fx)
		gen2, err := commitAndPublish(gs, fx)
		if err != nil {
			t.Fatal(err)
		}
		// Both the serving file and the newest journaled generation are
		// bad: the last good one is generation 1, not the newest id.
		replaceWith(t, path, []byte("not a snapshot"))
		replaceWith(t, gen2.SnapPath, fx.gen2[:len(fx.gen2)/2])
		var lines []string
		snap, id, err := OpenServing(path, false, func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) })
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if id != 1 || snap.Meta().Fingerprint != hex(fx.fp1) {
			t.Fatalf("fell back to generation %d fingerprint %s, want 1 / %s", id, snap.Meta().Fingerprint, hex(fx.fp1))
		}
		if len(lines) != 2 || !strings.Contains(lines[0], "failed to open") ||
			!strings.Contains(lines[1], "serving journaled generation 1") {
			t.Fatalf("log lines = %q, want the failed open, then the generation served", lines)
		}
	})

	t.Run("file without a journal has id 0", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "scores.snap")
		replaceWith(t, path, fx.gen1)
		snap, id, err := OpenServing(path, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if id != 0 {
			t.Fatalf("journal-less snapshot reports generation %d, want 0", id)
		}
	})

	t.Run("both failing returns the open error", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "scores.snap")
		replaceWith(t, path, []byte("not a snapshot"))
		_, wantErr := OpenSnapshot(path)
		snap, _, err := OpenServing(path, false, nil)
		if snap != nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("OpenServing = %v, %v; want the open error %q, not the journal's", snap, err, wantErr)
		}
	})
}

// TestOpenServingPreloadFailureClosesSnapshot: with preload, a snapshot
// whose header opens but whose segment fails its checksum is an error,
// and the file opened to find that out is neither left open nor mapped.
func TestOpenServingPreloadFailureClosesSnapshot(t *testing.T) {
	fx := buildGenFixture(t)
	probe, err := NewSnapshot(strings.NewReader(string(fx.gen1)), int64(len(fx.gen1)))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), fx.gen1...)
	bad[probe.dir[0].qOff] ^= 0xff
	path := filepath.Join(t.TempDir(), "scores.snap")
	replaceWith(t, path, bad)

	if snap, _, err := OpenServing(path, false, nil); err != nil {
		t.Fatalf("without preload the damaged segment must not fail the open: %v", err)
	} else {
		snap.Close()
	}
	if _, _, err := OpenServing(path, true, nil); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("OpenServing with preload = %v, want the segment's checksum failure", err)
	}

	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files here: %v", err)
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
			t.Errorf("fd %s still holds %s open", fd.Name(), path)
		}
	}
	if maps, err := os.ReadFile("/proc/self/maps"); err == nil && strings.Contains(string(maps), path) {
		t.Errorf("%s is still mapped", path)
	}
}

// TestReloadServingReportsPublishedGeneration: after a Commit + Publish
// (what a fold or a refresh does), ReloadServing swaps the new bytes in
// and /readyz reports the published generation's id; when the re-pointed
// file is bad it serves the last good generation under that one's id.
func TestReloadServingReportsPublishedGeneration(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, _ := servingDir(t, fx)
	snap, id, err := OpenServing(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(snap, DefaultServerConfig())
	srv.SetGenerationID(id)
	readyGen := func() GenerationIdentity {
		t.Helper()
		code, body := get(t, srv.Handler(), "/readyz")
		var ready ReadyResponse
		if err := json.Unmarshal(body, &ready); err != nil || code != http.StatusOK || ready.Generation == nil {
			t.Fatalf("readyz = %d %s (%v)", code, body, err)
		}
		return *ready.Generation
	}
	if g := readyGen(); g.ID != 1 {
		t.Fatalf("before the publish /readyz reports generation %d, want 1", g.ID)
	}

	gen, err := commitAndPublish(gs, fx)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadServing(path, true, t.Logf); err != nil {
		t.Fatal(err)
	}
	if g := readyGen(); g.ID != gen.ID || g.Fingerprint != fmt.Sprintf("%016x", fx.fp2) {
		t.Fatalf("after the publish /readyz reports %+v, want generation %d of %016x", g, gen.ID, fx.fp2)
	}
	if _, err := snap.closer.(*os.File).Stat(); err == nil {
		t.Error("the replaced snapshot was not closed")
	}

	replaceWith(t, path, []byte("not a snapshot"))
	replaceWith(t, gen.SnapPath, []byte("nor is this"))
	if err := srv.ReloadServing(path, false, t.Logf); err != nil {
		t.Fatalf("reload with a good generation to fall back to: %v", err)
	}
	if g := readyGen(); g.ID != 1 || srv.reloadFailures.Load() != 1 {
		t.Fatalf("after the fallback /readyz reports generation %d with %d reload failures, want 1 and 1", g.ID, srv.reloadFailures.Load())
	}
	srv.Index().(*Snapshot).Close()
}
