package serve

import (
	"io"
	"os"
	"path/filepath"
	"sync"
)

// LandFile makes a file durable at path, the one way a file in this
// module becomes durable (the snapshot writer, the generation journal and
// ingest's fold state): it creates a temp named by pattern (as for
// os.CreateTemp) in path's directory, lets fill write it, fsyncs and
// closes it, renames it over path and fsyncs the directory, so a reader
// never observes a partial file and a power loss after the return never
// leaves a torn one. checkpoint, when non-nil, is called with "mid-write"
// once fill's first write has landed and with "pre-rename" just before
// the rename. An error from it is a crash at that instant: the landing
// stops there and leaves the temp on disk, as a kill would, for the
// journal's Lock to sweep. Any other failure removes the temp.
func LandFile(path, pattern string, fill func(*TempFile) error, checkpoint func(stage string) error) error {
	if checkpoint == nil {
		checkpoint = func(string) error { return nil }
	}
	f, err := os.CreateTemp(filepath.Dir(path), pattern)
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

// A TempFile is the file a LandFile fill writes. It calls the landing's
// mid-write checkpoint once, after the first write lands: concurrent
// writers (the snapshot writer's shard workers) wait for it, and once it
// has failed every write fails with its error.
type TempFile struct {
	f    *os.File
	hook func() error
	once sync.Once
	err  error
}

func (t *TempFile) Write(p []byte) (int, error) {
	n, err := t.f.Write(p)
	return n, t.landed(n > 0, err)
}

func (t *TempFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := t.f.WriteAt(p, off)
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
func landLink(src, path, pattern string, checkpoint func(stage string) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
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
	return LandFile(path, pattern, func(w *TempFile) error {
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
