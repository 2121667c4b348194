package serve

import "fmt"

// OpenServing is the one way a daemon opens what it serves: the serving
// path, else the last good journaled generation beside it (the read-side
// half of generation rollback: a corrupt new file rolls a daemon back
// instead of keeping it down), every segment loaded and verified first
// when preload is set; and either way the journal id of what opened, so
// /readyz and /stats carry a full generation identity. A snapshot opens
// only when a server with bid-term set bids can answer from it
// (servable). When nothing opens the error is the path's. logf gets a
// line per fallback step and may be nil.
func OpenServing(path string, preload bool, bids map[string]bool, logf func(format string, args ...any)) (*Snapshot, uint64, error) {
	bidHash := BidTermsHash(bids)
	snap, err := openVerified(path, preload, bidHash)
	if err != nil {
		orSilent(logf)("serve: %s failed to open: %v", path, err)
		var ferr error
		if snap, ferr = openLastGood(path, preload, bidHash, logf); ferr != nil {
			return nil, 0, err
		}
	}
	return snap, journalID(path, snap), nil
}

// ReloadServing re-opens path as OpenServing does, under the server's bid
// set, and swaps the result in through Reload: one reload at a time, the
// generation id set in the same write section as the index, so /readyz
// and /stats never pair one snapshot's fingerprint with another's id; the
// replaced snapshot is closed once no request reads it, and when nothing
// opens the current index keeps serving and the path's error is returned.
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
		func() (ScoreIndex, error) { return identified(openVerified(path, preload, s.bidHash)) },
		func() (ScoreIndex, error) { return identified(openLastGood(path, preload, s.bidHash, logf)) },
		&id,
		func(old ScoreIndex) { old.(*Snapshot).Close() }, logf)
}

// servable refuses a snapshot a server under the bid-term set bidHash
// identifies cannot answer /rewrite from: one without a top-k section, or
// one whose lists were filtered under another bid-term set.
func servable(snap *Snapshot, bidHash uint64) error {
	m := snap.Meta()
	if m.RewriteTopK == 0 {
		return fmt.Errorf("serve: snapshot has no top-k rewrite section to answer /rewrite from")
	}
	if m.RewriteBidHash != bidHash {
		return fmt.Errorf("serve: snapshot's rewrite lists were filtered under another bid-term set (hash %016x) than -bids gives (hash %016x)",
			m.RewriteBidHash, bidHash)
	}
	return nil
}

// openVerified opens one snapshot file a server under bidHash can answer
// from (servable); with preload, a snapshot whose segments do not all
// load and verify is closed and is an error.
func openVerified(path string, preload bool, bidHash uint64) (*Snapshot, error) {
	snap, err := OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	if err = servable(snap, bidHash); err == nil && preload {
		err = snap.PreloadAll()
	}
	if err != nil {
		snap.Close()
		return nil, err
	}
	return snap, nil
}

// openLastGood opens the newest generation journaled beside the serving
// path that verifies end to end and a server under bidHash can answer
// from.
func openLastGood(serving string, preload bool, bidHash uint64, logf func(format string, args ...any)) (*Snapshot, error) {
	gen, err := NewGenerationStore(serving).LastGood()
	if err != nil {
		return nil, err
	}
	snap, err := openVerified(gen.SnapPath, preload, bidHash)
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
