package serve

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// LandFile makes a file durable at path, the one way a file in this
// module becomes durable (the snapshot writer, the generation journal and
// ingest's fold state): it creates a temp in path's directory
// (createTemp), lets fill write it while the kernel starts writing back
// what WriteAt has landed, fsyncs and closes it, renames it over path
// and fsyncs the directory, so a reader never observes a partial file and
// a power loss after the return never leaves a torn one.
// checkpoint, when non-nil, is called with "mid-write" once fill's first
// write has landed and with "pre-rename" just before the rename. An error
// from it is a crash at that instant: the landing stops there and leaves
// the temp on disk, as a kill would, for SweepTemps to remove. Any other
// failure removes the temp.
func LandFile(path string, fill func(*TempFile) error, checkpoint func(stage string) error) error {
	if checkpoint == nil {
		checkpoint = func(string) error { return nil }
	}
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	w := &TempFile{f: f, hook: func() error { return checkpoint("mid-write") }}
	if err = fill(w); w.err != nil {
		f.Close()
		return w.err
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return landTemp(f.Name(), path, checkpoint)
}

// A TempFile is the file a LandFile fill writes. Each time WriteAt has
// landed another writebackEvery bytes, the writer that crossed the mark
// starts the kernel's writeback of the whole file (startWriteback), so
// the device works while the snapshot writer's shard workers encode the
// next shards and LandFile's fsync waits only for the tail; Write's
// callers write once and fsync at once, so it starts nothing. It calls
// the landing's mid-write checkpoint once, after the first write lands:
// concurrent writers (the shard workers) wait for it, and once it has
// failed every write fails with its error.
type TempFile struct {
	f     *os.File
	wrote atomic.Int64 // bytes WriteAt has landed
	hook  func() error
	once  sync.Once
	err   error
}

// writebackEvery is how many landed bytes start one writeback. One start
// hands the kernel every dirty page of the file, which it sends to the
// device as long runs; a start per landed range (a shard's few hundred
// KB) cost the shard workers more than it saved.
const writebackEvery = 4 << 20

func (t *TempFile) Write(p []byte) (int, error) {
	n, err := t.f.Write(p)
	return n, t.landed(n > 0, err)
}

func (t *TempFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := t.f.WriteAt(p, off)
	if w := t.wrote.Add(int64(n)); w/writebackEvery != (w-int64(n))/writebackEvery {
		startWriteback(t.f)
	}
	return n, t.landed(n > 0, err)
}

func (t *TempFile) landed(wrote bool, err error) error {
	if err != nil || !wrote {
		return err
	}
	t.once.Do(func() { t.err = t.hook() })
	return t.err
}

// landLink lands src's bytes at path as LandFile does, with a hardlink
// of src as the temp when the filesystem allows (src is never written in
// place, so the link shares an immutable inode), else a copy.
func landLink(src, path string, checkpoint func(stage string) error) error {
	tmp, err := createTemp(path)
	if err != nil {
		return err
	}
	tmp.Close()
	if os.Remove(tmp.Name()) == nil && os.Link(src, tmp.Name()) == nil {
		return landTemp(tmp.Name(), path, checkpoint) // the empty file only reserved a unique name
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return LandFile(path, func(w *TempFile) error {
		_, err := io.Copy(w.f, in) // the file's own copy path; a copy has no mid-write stage
		return err
	}, checkpoint)
}

// landTemp renames tmp, a complete, fsynced file in path's directory,
// over path and fsyncs the directory, after checkpoint's "pre-rename"
// (nil for none), whose error keeps tmp as LandFile's does.
func landTemp(tmp, path string, checkpoint func(stage string) error) error {
	if checkpoint != nil {
		if err := checkpoint("pre-rename"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making the renames and links in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// tempInfix joins a landing temp's name: the target's base name, the
// infix, then os.CreateTemp's random digits ("fold-state.bin.tmp123").
const tempInfix = ".tmp"

// createTemp creates a temp for a landing at path, in path's directory.
func createTemp(path string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempInfix+"*")
}

// tempTarget returns the base name of the file that name, if it is a
// landing's temp, was to become.
func tempTarget(name string) (target string, ok bool) {
	i := strings.LastIndex(name, tempInfix)
	if i <= 0 {
		return "", false
	}
	digits := name[i+len(tempInfix):]
	return name[:i], digits != "" && strings.Trim(digits, "0123456789") == ""
}

// SweepTemps removes from dir the temps of landings whose target's base
// name satisfies of — what a crash at a checkpoint (or a kill) left — and
// returns how many it removed; a missing dir holds none. Only the dir's
// single writer may call it, before it lands anything there: a temp being
// filled looks the same as a torn one.
func SweepTemps(dir string, of func(target string) bool) (int, error) {
	return sweepDir(dir, func(name string) bool {
		target, ok := tempTarget(name)
		return ok && of(target)
	})
}

// sweepDir removes the entries of dir that debris names.
func sweepDir(dir string, debris func(name string) bool) (removed int, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if debris(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}
