package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestLandFile holds the one landing path to its contract, on a target
// that already exists: a landing replaces it whole; a failed fill leaves
// it and no temp; a checkpoint's error at either stage is a crash there,
// leaving the old target and the temp, which the journal's Lock sweeps.
func TestLandFile(t *testing.T) {
	old, next := []byte("old bytes"), []byte("the new, longer bytes")
	fillErr, crash := errors.New("fill failed"), errors.New("crash")
	for _, tc := range []struct {
		name      string
		fill      func(*TempFile) error
		crashAt   string // the checkpoint stage that fails, if any
		want      error
		landed    bool
		tempStays bool
	}{
		{name: "success", landed: true},
		{name: "fill fails", fill: func(w *TempFile) error {
			if _, err := w.Write(next[:4]); err != nil {
				return err
			}
			return fillErr
		}, want: fillErr},
		{name: "mid-write crash", crashAt: "mid-write", want: crash, tempStays: true},
		{name: "pre-rename crash", crashAt: "pre-rename", want: crash, tempStays: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "serving.snap")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			fill := tc.fill
			if fill == nil {
				fill = func(w *TempFile) error {
					// Two writes, back half first, as the snapshot writer
					// lands regions at their offsets.
					if _, err := w.WriteAt(next[4:], 4); err != nil {
						return err
					}
					_, err := w.Write(next[:4])
					return err
				}
			}
			var stages []string
			err := LandFile(path, fill, func(stage string) error {
				stages = append(stages, stage)
				if stage == tc.crashAt {
					return crash
				}
				return nil
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("LandFile: err = %v, want %v", err, tc.want)
			}
			if tc.landed && (len(stages) != 2 || stages[0] != "mid-write" || stages[1] != "pre-rename") {
				t.Errorf("checkpoint stages %v, want [mid-write pre-rename]", stages)
			}
			want := old
			if tc.landed {
				want = next
			}
			if got := readFile(t, path); !bytes.Equal(got, want) {
				t.Fatalf("target holds %q, want %q", got, want)
			}
			temps := globTemps(t, dir)
			if tc.tempStays != (len(temps) == 1) || len(temps) > 1 {
				t.Fatalf("temps after the landing: %v (one should stay: %v)", temps, tc.tempStays)
			}
			release, swept, err := NewGenerationStore(path).Lock()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			if swept != len(temps) || len(globTemps(t, dir)) != 0 {
				t.Fatalf("Lock swept %d of %v", swept, temps)
			}
		})
	}
}

// TestLandFileWritebackMarks lands, as the snapshot writer does, ranges
// from concurrent writers in no particular order, across several
// writebackEvery marks: every writeback the marks start leaves the
// landed bytes exactly as written.
func TestLandFileWritebackMarks(t *testing.T) {
	const chunk = 96 << 10 // not a divisor of writebackEvery: marks fall inside ranges
	want := make([]byte, 2*writebackEvery+chunk/3)
	for i := range want {
		want[i] = byte(i*7 + i>>12)
	}
	path := filepath.Join(t.TempDir(), "serving.snap")
	err := LandFile(path, func(w *TempFile) error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for off := k * chunk; off < len(want) && errs[k] == nil; off += 2 * chunk {
					_, errs[k] = w.WriteAt(want[off:min(off+chunk, len(want))], int64(off))
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Fatalf("target holds %d bytes that differ from the %d written", len(got), len(want))
	}
}
