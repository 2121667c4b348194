package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simrankpp/internal/clickgraph"
)

func walRec(i int) Record {
	clicks := int64(i%5 + 1)
	return Record{
		Query:       fmt.Sprintf("query-%d", i),
		Ad:          fmt.Sprintf("ad-%d", i%7),
		Impressions: clicks * 3,
		Clicks:      clicks,
		Rate:        float64(i%100) / 100,
	}
}

func appendRecs(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := l.Append(walRec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func replayAll(t *testing.T, l *Log, from uint64) (seqs []uint64, recs []Record) {
	t.Helper()
	err := l.Replay(from, func(seq uint64, rec Record) error {
		seqs = append(seqs, seq)
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, recs
}

func TestWALRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendRecs(t, l, 0, 100)
	if l.Segments() < 3 {
		t.Fatalf("expected rotation at 256 bytes, got %d segments", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = OpenLog(dir, LogOptions{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.TornBytesTruncated() != 0 {
		t.Fatalf("clean reopen truncated %d bytes", l.TornBytesTruncated())
	}
	if got := l.NextSeq(); got != 100 {
		t.Fatalf("NextSeq = %d, want 100", got)
	}
	seqs, recs := replayAll(t, l, 0)
	if len(recs) != 100 {
		t.Fatalf("replayed %d records, want 100", len(recs))
	}
	for i := range recs {
		if seqs[i] != uint64(i) {
			t.Fatalf("record %d has seq %d", i, seqs[i])
		}
		if !reflect.DeepEqual(recs[i], walRec(i)) {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], walRec(i))
		}
	}
	// Partial replay starts exactly at the cursor.
	seqs, _ = replayAll(t, l, 42)
	if len(seqs) != 58 || seqs[0] != 42 {
		t.Fatalf("replay from 42: %d records starting at %v", len(seqs), seqs[:1])
	}
}

// activeSegPath returns the lexically-last segment file — the active one.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return names[len(names)-1]
}

// TestWALReopenEmptySegment pins the empty-segment edge cases: a brand
// new log (header-only segment), and reopening it, must behave as an
// empty record set, not an error.
// TestAppendRefusesNamesTheFoldStateCannotCarry: the fold state saves the
// folded graph as click-graph text, where a line that starts with '#' is a
// comment and a carriage return at the end of a line is dropped. A record
// with such a name used to be acknowledged, folded and published, and the
// daemon then could not restart ("fold state graph fingerprint … !=
// recorded …"); now it never enters the log, and what does enter survives
// the state file.
func TestAppendRefusesNamesTheFoldStateCannotCarry(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, names := range [][2]string{{"#hashtag", "ad"}, {"query\r", "ad"}, {"query", "ad\r"}, {"que\try", "ad"}, {"query", "a\nd"}} {
		rec := Record{Query: names[0], Ad: names[1], Impressions: 2, Clicks: 1, Rate: 0.5}
		if seq, err := l.Append(rec); err == nil {
			t.Errorf("Append(%q, %q) accepted as sequence %d", names[0], names[1], seq)
		}
	}
	if l.NextSeq() != 0 {
		t.Fatalf("refused records advanced the log to sequence %d", l.NextSeq())
	}

	b := clickgraph.NewBuilder()
	for _, names := range [][2]string{{"q #1", "#ad"}, {"!query", "!ad"}, {" q\rx ", "\rad"}} {
		rec := Record{Query: names[0], Ad: names[1], Impressions: 2, Clicks: 1, Rate: 0.5}
		if _, err := l.Append(rec); err != nil {
			t.Fatalf("Append(%q, %q): %v", names[0], names[1], err)
		}
		if err := b.AddEdge(rec.Query, rec.Ad, rec.Weights()); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveFoldState(dir, l.NextSeq(), b.Build(), nil); err != nil {
		t.Fatal(err)
	}
	if st, err := LoadFoldState(dir); err != nil || st.Graph.NumEdges() != 3 {
		t.Errorf("LoadFoldState of accepted names: %+v, %v", st, err)
	}
	// A graph that did not come through Validate: an error, not a state
	// file that cannot be loaded.
	b.AddQuery("#isolated")
	if err := SaveFoldState(dir, l.NextSeq(), b.Build(), nil); err == nil {
		t.Error("SaveFoldState wrote a query the text form reads as a comment")
	}
}

func TestWALReopenEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if sz := fileSize(activeSegPath(t, dir)); sz != segHeaderSize {
		t.Fatalf("empty segment is %d bytes, want %d", sz, segHeaderSize)
	}
	l, err = OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopening empty log: %v", err)
	}
	defer l.Close()
	if got := l.NextSeq(); got != 0 {
		t.Fatalf("NextSeq = %d after empty reopen", got)
	}
	if seqs, _ := replayAll(t, l, 0); len(seqs) != 0 {
		t.Fatalf("empty log replayed %d records", len(seqs))
	}
	if seq, err := l.Append(walRec(0)); err != nil || seq != 0 {
		t.Fatalf("first append after empty reopen: seq %d, err %v", seq, err)
	}
}

// TestWALTornTailEveryLength cuts the active segment at EVERY byte
// length between the last full-record boundary and the file end.
// Each cut must reopen as the full-record prefix, byte-for-byte and
// record-for-record identical to a clean run, and accept new appends.
// The boundary cut itself (a record missing entirely) is a clean end,
// not a torn tail.
func TestWALTornTailEveryLength(t *testing.T) {
	const keep = 4 // records that must survive
	build := func(dir string) (boundary, full int64) {
		l, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		appendRecs(t, l, 0, keep)
		boundary = fileSize(activeSegPath(t, dir)) // after Sync, before the torn record
		appendRecs(t, l, keep, 1)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return boundary, fileSize(activeSegPath(t, dir))
	}
	cleanDir := t.TempDir()
	boundary, full := build(cleanDir)
	cleanPrefix, err := os.ReadFile(activeSegPath(t, cleanDir))
	if err != nil {
		t.Fatal(err)
	}
	cleanPrefix = cleanPrefix[:boundary]

	for cut := boundary; cut < full; cut++ {
		dir := t.TempDir()
		if b2, f2 := build(dir); b2 != boundary || f2 != full {
			t.Fatalf("nondeterministic build: boundary %d/%d, full %d/%d", b2, boundary, f2, full)
		}
		seg := activeSegPath(t, dir)
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(dir, LogOptions{})
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if torn := l.TornBytesTruncated(); (cut == boundary) != (torn == 0) {
			t.Fatalf("cut at %d (boundary %d): torn bytes %d", cut, boundary, torn)
		}
		if got := l.NextSeq(); got != keep {
			t.Fatalf("cut at %d: NextSeq %d, want %d", cut, got, keep)
		}
		if sz := fileSize(seg); sz != boundary {
			t.Fatalf("cut at %d: segment is %d bytes after reopen, want truncation to %d", cut, sz, boundary)
		}
		after, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, cleanPrefix) {
			t.Fatalf("cut at %d: surviving bytes differ from the clean run's prefix", cut)
		}
		seqs, recs := replayAll(t, l, 0)
		if len(recs) != keep {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(recs), keep)
		}
		for i := range recs {
			if seqs[i] != uint64(i) || !reflect.DeepEqual(recs[i], walRec(i)) {
				t.Fatalf("cut at %d: record %d = seq %d %+v", cut, i, seqs[i], recs[i])
			}
		}
		// The log must keep working where the tail left off.
		if seq, err := l.Append(walRec(keep)); err != nil || seq != keep {
			t.Fatalf("cut at %d: append after truncation: seq %d, err %v", cut, seq, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALFlipEveryByteOfFinalFrame flips every single byte of the last
// record's frame in turn: each flip must be rejected (CRC, length
// bounds, or payload validation) and reopen must serve exactly the
// preceding records — no flipped byte may ever surface as a record.
func TestWALFlipEveryByteOfFinalFrame(t *testing.T) {
	const keep = 2
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendRecs(t, l, 0, keep)
	boundary := fileSize(activeSegPath(t, dir))
	appendRecs(t, l, keep, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegPath(t, dir)
	clean, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for off := boundary; off < int64(len(clean)); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), clean...)
			mut[off] ^= 1 << bit
			if err := os.WriteFile(seg, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := OpenLog(dir, LogOptions{})
			if err != nil {
				t.Fatalf("flip byte %d bit %d: reopen: %v", off, bit, err)
			}
			if got := l.NextSeq(); got != keep {
				t.Fatalf("flip byte %d bit %d: NextSeq %d, want %d (corrupt record accepted?)", off, bit, got, keep)
			}
			seqs, recs := replayAll(t, l, 0)
			if len(recs) != keep {
				t.Fatalf("flip byte %d bit %d: replayed %d records", off, bit, len(recs))
			}
			for i := range recs {
				if seqs[i] != uint64(i) || !reflect.DeepEqual(recs[i], walRec(i)) {
					t.Fatalf("flip byte %d bit %d: record %d corrupted", off, bit, i)
				}
			}
			l.Close()
		}
	}
}

// TestWALMidChainCorruptionFatal: the torn-tail tolerance applies ONLY
// to the active segment. The same damage in a sealed (fsynced, rotated
// away) segment is corruption and must refuse to open.
func TestWALMidChainCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendRecs(t, l, 0, 60)
	if l.Segments() < 3 {
		t.Fatalf("need 3+ segments, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))

	t.Run("flipped byte", func(t *testing.T) {
		first := names[0]
		raw, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), raw...)
		mut[segHeaderSize+10] ^= 0x40
		if err := os.WriteFile(first, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLog(dir, LogOptions{}); err == nil {
			t.Fatal("mid-chain corruption opened without error")
		}
		if err := os.WriteFile(first, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("missing segment", func(t *testing.T) {
		second := names[1]
		raw, err := os.ReadFile(second)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(second); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLog(dir, LogOptions{}); err == nil {
			t.Fatal("segment gap opened without error")
		}
		if err := os.WriteFile(second, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// Restored intact, the chain must open again.
	l, err = OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("restored chain does not open: %v", err)
	}
	defer l.Close()
	if seqs, _ := replayAll(t, l, 0); len(seqs) != 60 {
		t.Fatalf("restored chain replayed %d records", len(seqs))
	}
}

func TestWALBackpressure(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{MaxLagRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendRecs(t, l, 0, 5)
	if _, err := l.Append(walRec(5)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("append past MaxLagRecords: %v, want ErrBackpressure", err)
	}
	l.SetFolded(3)
	if _, err := l.Append(walRec(5)); err != nil {
		t.Fatalf("append after SetFolded: %v", err)
	}
	if lag := l.NextSeq() - l.FoldedSeq(); lag != 3 {
		t.Fatalf("lag = %d, want 3", lag)
	}
	// A batch goes in whole or not at all.
	if _, err := l.Append(walRec(6), walRec(7), walRec(8)); !errors.Is(err, ErrBackpressure) || l.NextSeq() != 6 {
		t.Fatalf("batch past MaxLagRecords: %v, next seq %d; want ErrBackpressure and nothing appended", err, l.NextSeq())
	}
	if seq, err := l.Append(walRec(6), walRec(7)); err != nil || seq != 6 || l.NextSeq() != 8 {
		t.Fatalf("batch up to MaxLagRecords: seq %d, %v", seq, err)
	}
	l.SetFolded(8)
	six := []Record{walRec(8), walRec(9), walRec(10), walRec(11), walRec(12), walRec(13)}
	if _, err := l.Append(six...); !errors.Is(err, ErrBatchTooLarge) || l.NextSeq() != 8 {
		t.Fatalf("batch larger than MaxLagRecords: %v, next seq %d; want ErrBatchTooLarge and nothing appended", err, l.NextSeq())
	}
}

// TestWALAdvanceTo pins the cursor-ahead-of-WAL recovery: records that
// were folded, published, and then lost from the WAL directory must not
// make later sequence numbers collide.
func TestWALAdvanceTo(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 10 {
		t.Fatalf("NextSeq = %d after AdvanceTo(10)", got)
	}
	if seq, err := l.Append(walRec(0)); err != nil || seq != 10 {
		t.Fatalf("append after advance: seq %d, err %v", seq, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := replayAll(t, l, 10)
	if len(seqs) != 1 || seqs[0] != 10 {
		t.Fatalf("replay from 10: %v", seqs)
	}
	// AdvanceTo backwards is a no-op.
	if err := l.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 11 {
		t.Fatalf("NextSeq = %d after backwards AdvanceTo", got)
	}
}

func TestWALTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendRecs(t, l, 0, 60)
	segs := l.Segments()
	if segs < 3 {
		t.Fatalf("need 3+ segments, got %d", segs)
	}
	l.SetFolded(30)
	if err := l.TruncateBefore(30); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= segs {
		t.Fatalf("TruncateBefore removed nothing (%d segments)", l.Segments())
	}
	// Everything at or past the cursor must still replay.
	seqs, recs := replayAll(t, l, 30)
	if len(seqs) == 0 || seqs[0] > 30 || seqs[len(seqs)-1] != 59 {
		t.Fatalf("replay after truncation: %d records, first %d", len(seqs), seqs[0])
	}
	for i, seq := range seqs {
		if seq < 30 {
			continue
		}
		if !reflect.DeepEqual(recs[i], walRec(int(seq))) {
			t.Fatalf("record %d corrupted after truncation", seq)
		}
	}
	// The active segment is never deleted, even if fully folded.
	l.SetFolded(60)
	if err := l.TruncateBefore(60); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 1 {
		t.Fatal("active segment deleted")
	}
}
