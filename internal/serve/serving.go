package serve

import "fmt"

// OpenServing is the one way a daemon opens what it serves: the serving
// path, else the last good journaled generation beside it (the read-side
// half of generation rollback: a corrupt new file rolls a daemon back
// instead of keeping it down), every segment loaded and verified first
// when preload is set; and either way the journal id of what opened, so
// /readyz and /stats carry a full generation identity. When nothing
// opens the error is the path's. logf gets a line per fallback step and
// may be nil.
func OpenServing(path string, preload bool, logf func(format string, args ...any)) (*Snapshot, uint64, error) {
	snap, err := openVerified(path, preload)
	if err != nil {
		orSilent(logf)("serve: %s failed to open: %v", path, err)
		var ferr error
		if snap, ferr = openLastGood(path, preload, logf); ferr != nil {
			return nil, 0, err
		}
	}
	return snap, journalID(path, snap), nil
}

// ReloadServing re-opens path as OpenServing does and swaps the result
// in through Reload: one reload at a time, the generation id set in the
// same write section as the index, so /readyz and /stats never pair one
// snapshot's fingerprint with another's id; the replaced snapshot is
// closed once no request reads it, and when nothing opens the current
// index keeps serving and the path's error is returned.
func (s *Server) ReloadServing(path string, preload bool, logf func(format string, args ...any)) error {
	var id uint64
	identified := func(snap *Snapshot, err error) (ScoreIndex, error) {
		if err != nil {
			return nil, err
		}
		id = journalID(path, snap)
		return snap, nil
	}
	return s.reload(
		func() (ScoreIndex, error) { return identified(openVerified(path, preload)) },
		func() (ScoreIndex, error) { return identified(openLastGood(path, preload, logf)) },
		&id,
		func(old ScoreIndex) {
			if c, ok := old.(*Snapshot); ok {
				c.Close()
			}
		}, logf)
}

// openVerified opens one snapshot file; with preload, a snapshot whose
// segments do not all load and verify is closed and is an error.
func openVerified(path string, preload bool) (*Snapshot, error) {
	snap, err := OpenSnapshot(path)
	if err == nil && preload {
		if err = snap.PreloadAll(); err != nil {
			snap.Close()
			return nil, err
		}
	}
	return snap, err
}

// openLastGood opens the newest generation journaled beside the serving
// path that verifies end to end.
func openLastGood(serving string, preload bool, logf func(format string, args ...any)) (*Snapshot, error) {
	gen, err := NewGenerationStore(serving).LastGood()
	if err != nil {
		return nil, err
	}
	snap, err := openVerified(gen.SnapPath, preload)
	if err == nil {
		orSilent(logf)("serve: serving journaled generation %d (%s)", gen.ID, gen.SnapPath)
	}
	return snap, err
}

// journalID matches snap to the journal beside the serving path by graph
// fingerprint: the newest generation journaled for that graph, or 0 when
// there is no journal or no match.
func journalID(serving string, snap *Snapshot) (id uint64) {
	gens, _ := NewGenerationStore(serving).List() // unreadable journal: no id
	want := snap.Meta().Fingerprint
	for _, g := range gens {
		if fmt.Sprintf("%016x", g.Fingerprint) == want && g.ID > id {
			id = g.ID
		}
	}
	return id
}
