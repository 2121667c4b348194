package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestReloadRacesRefreshSwap drives SIGHUP-style reloads concurrently
// with an in-place `-refresh`-style swap of the serving file (temp +
// rename, the only replacement the snapshot contract permits) and
// asserts every reload lands on exactly one of the two generations —
// header, segments and fingerprint all from the same file, never a torn
// mix. Run under -race this also checks the Server.swap/handler
// synchronization.
func TestReloadRacesRefreshSwap(t *testing.T) {
	cfg := refreshCfg()
	g := refreshGraph(t, [4]int{1, 2, 3, 4})
	_, bytesA, snapA := buildGeneration(t, g, cfg)
	fpA := snapA.Meta().Fingerprint

	// Generation B: one cluster churned, refreshed from A.
	churned := refreshGraph(t, [4]int{9, 2, 3, 4})
	_, _, _, bytesB := refreshBytes(t, churned, snapA)
	snapB, err := NewSnapshot(bytes.NewReader(bytesB), int64(len(bytesB)))
	if err != nil {
		t.Fatal(err)
	}
	fpB := snapB.Meta().Fingerprint
	if fpA == fpB {
		t.Fatal("fixture generations share a fingerprint — the race would be undetectable")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "serving.snap")
	swapIn := func(b []byte) {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			t.Error(err)
			return
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Error(err)
		}
	}
	swapIn(bytesA)

	// load opens the serving path and forces every segment through its
	// CRC check: a torn read (header of one generation, segments of the
	// other) cannot pass PreloadAll, because each generation's directory
	// carries its own segment CRCs and offsets.
	load := func() (ScoreIndex, error) {
		snap, err := OpenSnapshot(path)
		if err != nil {
			return nil, err
		}
		if err := snap.PreloadAll(); err != nil {
			snap.Close()
			return nil, err
		}
		return snap, nil
	}

	first, err := load()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(first, DefaultServerConfig())
	h := srv.Handler()

	const swaps = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				swapIn(bytesB)
			} else {
				swapIn(bytesA)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Reload as fast as the swapper churns, interleaved with live
	// queries; every loaded index must be wholly generation A or B.
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < swaps; i++ {
			if err := srv.Reload(load, nil, func(old ScoreIndex) {
				if s, ok := old.(*Snapshot); ok {
					s.Close()
				}
			}, t.Logf); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
			got := srv.Index().(*Snapshot)
			if fp := got.Meta().Fingerprint; fp != fpA && fp != fpB {
				t.Errorf("reload %d landed on fingerprint %s, not generation A (%s) or B (%s)", i, fp, fpA, fpB)
				return
			}
			if err := got.Err(); err != nil {
				t.Errorf("reload %d: loaded snapshot degraded: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Live traffic against whichever generation is in: both fixtures
	// intern identical node names, so any query answers under either.
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			req := httptest.NewRequest("GET", "/rewrite?q=c0-q0", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("query during reload race = %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
	}
	wg.Wait()

	if s, ok := srv.Index().(*Snapshot); ok {
		defer s.Close()
	}
}

// TestShedRetryAfterDerivedFromOverloadDepth pins the derived
// Retry-After schedule: the hint grows by one base interval per
// MaxInFlight consecutive sheds, clamps at the ceiling (lowered to 3
// here), and resets to the base as soon as a request is admitted again.
func TestShedRetryAfterDerivedFromOverloadDepth(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxInFlight = 1
	srv, _ := fig3Server(t, cfg)
	srv.maxRetryAfter = 3
	h := srv.Handler()

	shedOnce := func(i int, want string) {
		t.Helper()
		req := httptest.NewRequest("GET", "/rewrite?q=camera", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("shed %d = %d, want 503: %s", i, rec.Code, rec.Body.Bytes())
		}
		if got := rec.Header().Get("Retry-After"); got != want {
			t.Fatalf("shed %d Retry-After = %q, want %q", i, got, want)
		}
	}

	// Hold the only slot: every scoring request sheds, and with depth 1
	// each consecutive shed adds a base interval until the clamp.
	srv.inflight <- struct{}{}
	for i, want := range []string{"1", "2", "3", "3", "3"} {
		shedOnce(i, want)
	}

	// An admitted request resets the streak; the next shed starts over.
	<-srv.inflight
	if code, body := get(t, h, "/rewrite?q=camera"); code != http.StatusOK {
		t.Fatalf("admitted request = %d: %s", code, body)
	}
	srv.inflight <- struct{}{}
	shedOnce(99, "1")
	<-srv.inflight
}
