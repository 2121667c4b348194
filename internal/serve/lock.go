package serve

import (
	"fmt"
	"os"
)

// Advisory writer lock for the generation journal. Two writers
// interleaving Commit/Publish against the same journal — a cron'd
// `simrank -refresh` racing the ingest controller, or two operators
// refreshing at once — would interleave temp files, manifests, and the
// serving rename in undefined orders. The lock makes the second
// acquirer fail fast with a message naming the conflict instead.

// Lock takes the store's advisory exclusive lock (flock on Unix; a
// no-op elsewhere — see lock_other.go), then sweeps the journal debris
// an earlier writer's crash left behind and returns how many files it
// removed. It does not block: if another process (or another store in
// this process) holds the lock, Lock returns an error immediately. The
// returned release func is idempotent. The lock file lives beside the
// serving snapshot (<snapshot>.lock) and is never deleted — flock
// state, not content, is the lock.
func (gs *GenerationStore) Lock() (release func() error, swept int, err error) {
	path := gs.path + ".lock"
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: open journal lock: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("serve: %s is locked by another refresh or ingest controller (%v) — wait for it to finish or stop it first", path, err)
	}
	released := false
	release = func() error {
		if released {
			return nil
		}
		released = true
		err := funlock(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if swept, err = gs.sweepDebris(); err != nil {
		release()
		return nil, 0, fmt.Errorf("serve: sweeping journal debris: %w", err)
	}
	return release, swept, nil
}
