package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
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
		snap, id, err := OpenServing(path, true, nil, t.Logf)
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
		snap, id, err := OpenServing(path, false, nil, func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) })
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
		snap, id, err := OpenServing(path, false, nil, nil)
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
		snap, _, err := OpenServing(path, false, nil, nil)
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

	if snap, _, err := OpenServing(path, false, nil, nil); err != nil {
		t.Fatalf("without preload the damaged segment must not fail the open: %v", err)
	} else {
		snap.Close()
	}
	if _, _, err := OpenServing(path, true, nil, nil); err == nil || !strings.Contains(err.Error(), "checksum") {
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
	snap, id, err := OpenServing(path, false, nil, nil)
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

// TestReloadServingPairsIDWithFingerprint races ReloadServing calls — a
// SIGHUP's and a fold's, as simrankd -wal makes them — while the serving
// path is re-pointed among three journaled generations and /readyz is
// polled: every answer pairs a generation id with that generation's own
// fingerprint, and once the reloads stop the file the path names serves.
// Run it under -race.
func TestReloadServingPairsIDWithFingerprint(t *testing.T) {
	fx := buildGenFixture(t)
	hex := func(fp uint64) string { return fmt.Sprintf("%016x", fp) }
	path, gs, _ := servingDir(t, fx)
	g2, err := commitPublishBytes(gs, fx.gen2, fx.fp2)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := commitPublishBytes(gs, fx.gen3, fx.fp3)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]uint64{hex(fx.fp1): 1, hex(fx.fp2): g2.ID, hex(fx.fp3): g3.ID}
	gens := [][]byte{fx.gen1, fx.gen2, fx.gen3}
	snap, id, err := OpenServing(path, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(snap, DefaultServerConfig())
	srv.SetGenerationID(id)
	h := srv.Handler()
	// paired polls /readyz once; false after reporting a mismatch.
	paired := func() bool {
		code, body := get(t, h, "/readyz")
		var ready ReadyResponse
		if err := json.Unmarshal(body, &ready); err != nil || code != http.StatusOK || ready.Generation == nil {
			t.Errorf("readyz = %d %s (%v)", code, body, err)
			return false
		}
		if g := ready.Generation; ids[g.Fingerprint] != g.ID {
			t.Errorf("/readyz pairs generation %d with fingerprint %s, generation %d's", g.ID, g.Fingerprint, ids[g.Fingerprint])
			return false
		}
		return true
	}

	// Each reloader re-points the path, reloads and polls; one more
	// goroutine polls throughout.
	const reloaders, reloads = 3, 50
	var wg sync.WaitGroup
	for r := 0; r < reloaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reloads; i++ {
				// replaceWith, but t.Fatal belongs to the test's goroutine.
				next := fmt.Sprintf("%s.next%d", path, r)
				if err := os.WriteFile(next, gens[(r+i)%len(gens)], 0o644); err != nil {
					t.Error(err)
					return
				}
				if err := os.Rename(next, path); err != nil {
					t.Error(err)
					return
				}
				if err := srv.ReloadServing(path, false, nil); err != nil {
					t.Errorf("reload: %v", err)
					return
				}
				if !paired() {
					return
				}
			}
		}(r)
	}
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				polled <- n
				return
			default:
			}
			if !paired() {
				<-stop
				polled <- n
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	t.Logf("%d /readyz answers polled across %d reloads", <-polled, reloaders*reloads)

	// Reloads run one at a time, so the last to open swapped in last: what
	// the path names now is what serves.
	onDisk, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	want := onDisk.Meta().Fingerprint
	onDisk.Close()
	var stats StatsResponse
	if _, body := get(t, h, "/stats"); json.Unmarshal(body, &stats) != nil || stats.Generation == nil ||
		stats.Generation.Fingerprint != want || stats.Generation.ID != ids[want] {
		t.Errorf("after the race /stats reports %+v, want generation %d of %s, what the path holds", stats.Generation, ids[want], want)
	}
	srv.Index().(*Snapshot).Close()
}

// TestIngestStatusCalledUnderNoServerLock: /stats and /readyz call the
// ingest callback before they take the index lock, so a callback that
// waits on a reload — a fold holding the controller while it publishes
// and swaps — cannot deadlock against the probe.
func TestIngestStatusCalledUnderNoServerLock(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	snap := srv.Index().(*Snapshot)
	srv.SetIngestStatus(func() IngestStatus {
		srv.swap(snap, nil) // takes the index write lock
		return IngestStatus{Degraded: true, Reason: "folds failing"}
	})
	h := srv.Handler()
	for _, path := range []string{"/stats", "/readyz"} {
		done := make(chan []byte)
		go func() {
			_, body := get(t, h, path)
			done <- body
		}()
		select {
		case body := <-done:
			if !strings.Contains(string(body), "folds failing") {
				t.Errorf("%s = %s, want the ingest status", path, body)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s deadlocked: the ingest callback ran under the index lock", path)
		}
	}
}

// TestReloadsRunOneAtATime: while one reload is between its open and its
// swap, another (ReloadServing goes through the same Reload) does not
// start opening, so an older open never swaps in over a newer one.
func TestReloadsRunOneAtATime(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	snap := srv.Index()
	entered, release := make(chan string, 2), make(chan struct{})
	load := func(name string) func() (ScoreIndex, error) {
		return func() (ScoreIndex, error) {
			entered <- name
			<-release
			return snap, nil
		}
	}
	done := make(chan error, 2)
	go func() { done <- srv.Reload(load("first"), nil, nil, nil) }()
	<-entered
	go func() { done <- srv.Reload(load("second"), nil, nil, nil) }()
	select {
	case name := <-entered:
		t.Fatalf("the %s reload opened while the first was still opening", name)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if name := <-entered; name != "second" {
		t.Fatalf("then %q opened, want the second reload", name)
	}
}
