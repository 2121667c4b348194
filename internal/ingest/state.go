package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/frame"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
)

// The fold state is the durable cursor that makes crash replay
// exactly-once with respect to the published generation. It is ONE
// atomic file — cursor sequence number AND the folded graph together —
// because splitting them would open a window (crash after one write,
// before the other) where replay re-applies WAL records onto a graph
// that already contains them, double-counting impressions.
//
// With the single file, every crash window resolves cleanly:
//
//   - crash before the generation publishes → state still holds the old
//     cursor and old graph; replay re-folds the pending records onto the
//     old graph and refreshes again — the serving side never saw the
//     half-finished generation (the journal's own crash safety).
//   - crash AFTER publish but BEFORE the state write → replay rebuilds a
//     graph identical to the one the published generation was computed
//     from (same ids), the fingerprint diff classifies zero shards dirty,
//     and the controller skips straight to saving the state. The delta is
//     never applied twice.
//
// The graph text is clickgraph.Write's: it declares every node in id
// order, so clickgraph.Read gives the folded graph back with its ids —
// which the incremental pipeline keys on: shard fingerprints hash node
// ids, and a clean shard's segment byte-copy assumes identical global
// ids. A name the text cannot carry is a Write error, never a state that
// loads as a different graph (Record.Validate keeps such names out of the
// WAL).
//
// File layout (one internal/frame frame):
//
//	magic "SRPPFST1" | version u32 | cursor seq u64 |
//	graph fingerprint u64 | graph text length u64 | graph text
const (
	stateMagic   = "SRPPFST1"
	stateVersion = 1
	stateFile    = "fold-state.bin"
)

// FoldState is the decoded durable fold cursor.
type FoldState struct {
	// Seq: every WAL record with sequence < Seq is folded into Graph.
	Seq uint64
	// Fingerprint is partition.GraphFingerprint(Graph), verified on load.
	Fingerprint uint64
	// Graph is the folded click graph under its original intern order.
	Graph *clickgraph.Graph
}

// SaveFoldState atomically writes the fold state into dir
// (serve.LandFile: temp + fsync + rename + directory fsync); checkpoint
// is the landing's (nil for none).
func SaveFoldState(dir string, seq uint64, g *clickgraph.Graph, checkpoint func(stage string) error) error {
	var text bytes.Buffer
	if err := clickgraph.Write(&text, g); err != nil {
		return err
	}
	e := frame.Append(make([]byte, 0, 36+text.Len()+frame.TrailerSize), stateMagic) // magic + fixed fields
	e.U32(stateVersion)
	e.U64(seq)
	e.U64(partition.GraphFingerprint(g))
	e.U64(uint64(text.Len()))
	e.Raw(text.Bytes())
	buf := e.Seal()

	return serve.LandFile(filepath.Join(dir, stateFile), func(w *serve.TempFile) error {
		_, err := w.Write(buf)
		return err
	}, checkpoint)
}

// LoadFoldState reads the fold state from dir. A missing file returns
// (nil, nil) — first start. A corrupt file is an error: the operator
// playbook (OPERATIONS.md, "Failure-mode playbook", "fold-state.bin
// corrupt on startup") covers recovery, silently refolding from the wrong
// cursor must not.
func LoadFoldState(dir string) (*FoldState, error) {
	raw, err := os.ReadFile(filepath.Join(dir, stateFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	d, err := frame.Open(raw, stateMagic)
	if err != nil {
		return nil, fmt.Errorf("ingest: fold state: %w", err)
	}
	version := d.U32()
	st := &FoldState{Seq: d.U64(), Fingerprint: d.U64()}
	text := d.Raw(int(d.U64()))
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("ingest: fold state: %w", err)
	}
	if version != stateVersion {
		return nil, fmt.Errorf("ingest: fold state version %d, want %d", version, stateVersion)
	}
	g, err := clickgraph.Read(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("ingest: fold state graph: %w", err)
	}
	if fp := partition.GraphFingerprint(g); fp != st.Fingerprint {
		return nil, fmt.Errorf("ingest: fold state graph fingerprint %016x != recorded %016x", fp, st.Fingerprint)
	}
	st.Graph = g
	return st, nil
}
