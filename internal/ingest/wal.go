package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"simrankpp/internal/frame"
	"simrankpp/internal/serve"
)

// The WAL is a directory of fixed-header segments:
//
//	wal-00000000.seg  wal-00000001.seg  ...
//
// Segment header (a 32-byte internal/frame frame):
//
//	magic "SRPPWAL1" | version u32 | segment index u64 | first seq u64
//
// followed by record frames (no magic), each behind its payload length:
//
//	payload len u32 | payload | frame trailer
//
// Record payload (fixed layout, so a flipped length byte can't make the
// decoder allocate unboundedly):
//
//	qlen u16 | query | alen u16 | ad | impressions u64 | clicks u64 | rate float64 bits u64
//
// Records carry implicit sequence numbers: segment firstSeq + position.
// The fold cursor is a sequence number; replay starts at the first
// segment whose range covers it. TruncateBefore drops whole segments
// strictly below the cursor — retention is oldest-segment granular, so
// the bytes a crash recovery could still need are never deleted.
//
// Durability contract: Append buffers; Sync flushes and fsyncs once for
// however many appends preceded it (group commit). Rotation fsyncs the
// finished segment and the directory, so only the ACTIVE segment can
// ever have a torn tail. Reopen verifies every frame: a torn or corrupt
// tail on the last segment is truncated at the last valid record
// boundary; the same damage mid-chain (a segment that was fsynced and
// rotated away) is a hard error — that's corruption, not a crash.

const (
	segMagic      = "SRPPWAL1"
	segVersion    = 1
	segHeaderSize = 32

	// Payload bounds: 2+name + 2+name + 3×8 bytes.
	minPayloadLen = 2 + 1 + 2 + 1 + 24
	maxPayloadLen = 2 + maxNameLen + 2 + maxNameLen + 24
	frameOverhead = 4 + frame.TrailerSize // u32 length prefix + trailer
)

// ErrBackpressure is returned by Append when the WAL has outrun folding
// past LogOptions.MaxLagRecords. Callers should surface it as "retry
// later" (the ingest daemon answers 503 + Retry-After) — the bound is
// what keeps replay time and WAL disk usage finite when refresh is
// failing or slow.
var ErrBackpressure = errors.New("ingest: WAL lag exceeds MaxLagRecords; folding is behind, retry later")

// ErrBatchTooLarge is returned by Append for a batch of more than
// LogOptions.MaxLagRecords records: no amount of folding makes room for
// it, so the caller must split it (the ingest daemon answers 413).
var ErrBatchTooLarge = errors.New("ingest: batch holds more records than MaxLagRecords; split it")

// LogOptions tunes a Log.
type LogOptions struct {
	// MaxLagRecords bounds nextSeq - foldedSeq: a batch that would take
	// it beyond the bound fails with ErrBackpressure until SetFolded
	// advances. 0 disables.
	MaxLagRecords uint64

	// segmentBytes rotates the active segment once it reaches this many
	// bytes (header included): 4 MiB unless a rotation test lowers it.
	segmentBytes int64
}

type segInfo struct {
	path     string
	index    uint64
	firstSeq uint64
	records  uint64
}

// Log is the segmented WAL. All methods are safe for concurrent use;
// one goroutine appending while another replays is the intended shape
// (the ingest handler vs the fold loop).
type Log struct {
	dir string
	opt LogOptions

	mu      sync.Mutex
	segs    []segInfo // ascending by index; last is active
	f       *os.File  // active segment, append-only
	w       *bufio.Writer
	size    int64 // active segment bytes (through the buffer)
	nextSeq uint64
	folded  uint64 // durable fold cursor, for lag accounting
	dirty   bool   // unsynced appends
	scratch []byte

	tornBytes int64 // tail bytes truncated at open, for diagnostics
}

// OpenLog opens (or creates) the WAL in dir, scanning every segment,
// truncating a torn tail on the last one, and positioning the next
// append after the last valid record.
func OpenLog(dir string, opt LogOptions) (*Log, error) {
	if opt.segmentBytes <= 0 {
		opt.segmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt}

	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for i, path := range names {
		last := i == len(names)-1
		var wantIdx uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "wal-%08d.seg", &wantIdx); err != nil {
			return nil, fmt.Errorf("ingest: unrecognized WAL file %s", path)
		}
		h, records, validEnd, torn, err := scanSegment(path)
		if err != nil {
			if last && errors.Is(err, errBadSegHeader) {
				// The segment file was created but its header never
				// reached disk whole — nothing in it can be valid.
				// Remove it; a fresh active segment is created below.
				l.tornBytes += fileSize(path)
				if rmErr := os.Remove(path); rmErr != nil {
					return nil, rmErr
				}
				continue
			}
			return nil, fmt.Errorf("ingest: WAL segment %s: %w", path, err)
		}
		if h.index != wantIdx {
			return nil, fmt.Errorf("ingest: WAL segment %s header claims index %d", path, h.index)
		}
		if n := len(l.segs); n > 0 {
			prev := l.segs[n-1]
			if h.index != prev.index+1 {
				return nil, fmt.Errorf("ingest: WAL segment gap: %s follows index %d", path, prev.index)
			}
			if h.firstSeq != prev.firstSeq+prev.records {
				return nil, fmt.Errorf("ingest: WAL segment %s first seq %d breaks the chain (want %d)",
					path, h.firstSeq, prev.firstSeq+prev.records)
			}
		}
		if torn {
			if !last {
				return nil, fmt.Errorf("ingest: WAL segment %s is corrupt mid-chain (damage past the first %d records)", path, records)
			}
			st, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			l.tornBytes += st.Size() - validEnd
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, err
			}
		}
		l.segs = append(l.segs, segInfo{path: path, index: h.index, firstSeq: h.firstSeq, records: records})
	}
	if l.tornBytes > 0 {
		if err := serve.SyncDir(dir); err != nil {
			return nil, err
		}
	}

	if len(l.segs) == 0 {
		if err := l.createSegment(0, 0); err != nil {
			return nil, err
		}
	} else {
		active := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.w, l.size = f, bufio.NewWriterSize(f, 64*1024), st.Size()
	}
	active := l.segs[len(l.segs)-1]
	l.nextSeq = active.firstSeq + active.records
	l.folded = l.segs[0].firstSeq // everything below the first retained segment has been folded
	return l, nil
}

// TornBytesTruncated reports how many tail bytes the open scan dropped —
// zero after a clean shutdown.
func (l *Log) TornBytesTruncated() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornBytes
}

// Append validates recs, frames them, and buffers them for the next Sync
// as one batch: the lag check and the appends happen under one hold of
// the lock, so a batch goes in whole or not at all. It returns the first
// record's sequence number. ErrBackpressure rejects a batch that would
// take the WAL more than MaxLagRecords ahead of the fold cursor,
// ErrBatchTooLarge one that could never fit.
func (l *Log) Append(recs ...Record) (uint64, error) {
	for _, rec := range recs {
		if err := rec.Validate(); err != nil {
			return 0, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if lag := l.opt.MaxLagRecords; lag > 0 {
		if uint64(len(recs)) > lag {
			return 0, ErrBatchTooLarge
		}
		if l.nextSeq-l.folded+uint64(len(recs)) > lag {
			return 0, ErrBackpressure
		}
	}
	first := l.nextSeq
	for _, rec := range recs {
		l.scratch = appendFrame(l.scratch[:0], rec)
		if _, err := l.w.Write(l.scratch); err != nil {
			return 0, err
		}
		l.nextSeq++
		l.segs[len(l.segs)-1].records++
		l.size += int64(len(l.scratch))
		l.dirty = true
		if l.size >= l.opt.segmentBytes {
			if err := l.rotateLocked(l.nextSeq); err != nil {
				return 0, err
			}
		}
	}
	return first, nil
}

// Sync flushes buffered appends and fsyncs the active segment — the
// group-commit point. A batch of Appends followed by one Sync costs one
// fsync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// NextSeq is the sequence number the next Append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// FoldedSeq is the fold cursor last reported via SetFolded.
func (l *Log) FoldedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.folded
}

// SetFolded records that every sequence number below seq has been
// durably folded (the controller calls this after its cursor fsync).
// It releases backpressure; it does not delete anything — pair with
// TruncateBefore for retention.
func (l *Log) SetFolded(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.folded {
		l.folded = seq
	}
}

// AdvanceTo fast-forwards the log so the next append gets sequence seq,
// rotating to a fresh segment. Used when a durable fold cursor is AHEAD
// of the WAL (the tail was lost after its records were already folded
// and published): those records live on in the checkpoint graph, and
// re-numbering from the cursor keeps replay arithmetic monotone.
func (l *Log) AdvanceTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.nextSeq {
		return nil
	}
	l.nextSeq = seq
	return l.rotateLocked(seq)
}

// rotateLocked seals the active segment (flush + fsync + close) and
// opens the next one with firstSeq as its base sequence number.
func (l *Log) rotateLocked(firstSeq uint64) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.dirty = false
	return l.createSegment(l.segs[len(l.segs)-1].index+1, firstSeq)
}

// createSegment creates and fsyncs a new active segment file. The
// header is synced before any record can enter it, so reopen can always
// trust a non-last segment's header.
func (l *Log) createSegment(index, firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%08d.seg", index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := encodeSegHeader(index, firstSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := serve.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.segs = append(l.segs, segInfo{path: path, index: index, firstSeq: firstSeq})
	l.f, l.w, l.size = f, bufio.NewWriterSize(f, 64*1024), segHeaderSize
	return nil
}

// Replay calls fn for every record with sequence >= from, in order. It
// holds the log lock for the duration — appends wait, which is the
// point: the fold must see a stable prefix. Every frame is re-validated;
// any damage is an error (reopen already truncated legitimate torn
// tails, so damage here means the disk lied after fsync).
func (l *Log) Replay(from uint64, fn func(seq uint64, rec Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty {
		// Flush (no fsync) so the read side sees every buffered frame.
		if err := l.w.Flush(); err != nil {
			return err
		}
	}
	for _, seg := range l.segs {
		end := seg.firstSeq + seg.records
		if end <= from {
			continue
		}
		if err := replaySegment(seg, from, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(seg segInfo, from uint64, fn func(uint64, Record) error) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256*1024)
	if _, err := br.Discard(segHeaderSize); err != nil {
		return fmt.Errorf("ingest: WAL segment %s: %w", seg.path, err)
	}
	scratch := make([]byte, 0, 4096)
	for i := uint64(0); i < seg.records; i++ {
		fr, err := readFrame(br, &scratch)
		if err != nil {
			return fmt.Errorf("ingest: WAL segment %s record %d: %w", seg.path, i, err)
		}
		rec, err := decodeRecord(fr)
		if err != nil {
			return fmt.Errorf("ingest: WAL segment %s record %d: %w", seg.path, i, err)
		}
		if seq := seg.firstSeq + i; seq >= from {
			if err := fn(seq, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// TruncateBefore deletes whole segments whose every record is below
// seq. The active segment is never deleted; retention is per-segment,
// so some already-folded records usually remain — harmless, replay
// starts at the cursor.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := false
	for len(l.segs) > 1 && l.segs[0].firstSeq+l.segs[0].records <= seq {
		if err := os.Remove(l.segs[0].path); err != nil {
			return err
		}
		l.segs = l.segs[1:]
		removed = true
	}
	if removed {
		return serve.SyncDir(l.dir)
	}
	return nil
}

// Segments reports how many WAL segments are on disk.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close flushes, fsyncs, and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// --- wire helpers ---

var errBadSegHeader = errors.New("invalid segment header")

type segHeader struct {
	index    uint64
	firstSeq uint64
}

func encodeSegHeader(index, firstSeq uint64) []byte {
	e := frame.Append(make([]byte, 0, segHeaderSize), segMagic)
	e.U32(segVersion)
	e.U64(index)
	e.U64(firstSeq)
	return e.Seal()
}

func decodeSegHeader(hdr []byte) (segHeader, error) {
	d, err := frame.Open(hdr, segMagic)
	if err != nil {
		return segHeader{}, fmt.Errorf("%w: %v", errBadSegHeader, err)
	}
	v := d.U32()
	h := segHeader{index: d.U64(), firstSeq: d.U64()}
	if err := d.Done(); err != nil {
		return segHeader{}, fmt.Errorf("%w: %v", errBadSegHeader, err)
	}
	if v != segVersion {
		return segHeader{}, fmt.Errorf("%w: version %d", errBadSegHeader, v)
	}
	return h, nil
}

func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	e := frame.Append(append(buf, 0, 0, 0, 0), "") // payload length, patched below
	e.U16(uint16(len(rec.Query)))
	e.Raw([]byte(rec.Query))
	e.U16(uint16(len(rec.Ad)))
	e.Raw([]byte(rec.Ad))
	e.U64(uint64(rec.Impressions))
	e.U64(uint64(rec.Clicks))
	e.F64(rec.Rate)
	buf = e.Seal()
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-frameOverhead))
	return buf
}

// readFrame reads one length-prefixed record frame and returns it without
// the prefix. The length is bounds-checked BEFORE any allocation, and the
// buffer is reused across calls via *scratch — a flipped length byte costs
// at most maxPayloadLen bytes, never an unbounded make.
func readFrame(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < minPayloadLen || n > maxPayloadLen {
		return nil, fmt.Errorf("frame length %d outside [%d,%d]", n, minPayloadLen, maxPayloadLen)
	}
	size := int(n) + frame.TrailerSize
	if cap(*scratch) < size {
		*scratch = make([]byte, size)
	}
	buf := (*scratch)[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		// A bare io.EOF here means the file ended right after the length
		// prefix — that is a torn frame, not a clean end; only an EOF
		// BEFORE the prefix marks a record boundary.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// decodeRecord opens one record frame and fully validates it. Every field
// is bounds-checked and the payload must be exactly consumed, so a flipped
// byte anywhere either breaks the CRC or lands here.
func decodeRecord(b []byte) (Record, error) {
	d, err := frame.Open(b, "")
	if err != nil {
		return Record{}, err
	}
	r := Record{Query: string(d.Raw(int(d.U16()))), Ad: string(d.Raw(int(d.U16())))}
	impr, clicks := d.U64(), d.U64()
	r.Rate = d.F64()
	if err := d.Done(); err != nil {
		return Record{}, err
	}
	if impr > math.MaxInt64 {
		return Record{}, fmt.Errorf("impressions %d overflow int64", impr)
	}
	if clicks > math.MaxInt64 {
		return Record{}, fmt.Errorf("clicks %d overflow int64", clicks)
	}
	r.Impressions, r.Clicks = int64(impr), int64(clicks)
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// scanSegment validates path's header and counts its valid record
// prefix. torn reports bytes past validEnd that do not form a valid
// record chain — the caller decides truncate (last segment) vs hard
// error (mid-chain).
func scanSegment(path string) (h segHeader, records uint64, validEnd int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return h, 0, 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256*1024)
	hdr := make([]byte, segHeaderSize)
	if _, rerr := io.ReadFull(br, hdr); rerr != nil {
		return h, 0, 0, false, errBadSegHeader
	}
	if h, err = decodeSegHeader(hdr); err != nil {
		return h, 0, 0, false, err
	}
	validEnd = segHeaderSize
	scratch := make([]byte, 0, 4096)
	for {
		fr, rerr := readFrame(br, &scratch)
		if rerr == io.EOF {
			return h, records, validEnd, false, nil // clean end at a record boundary
		}
		if rerr != nil {
			return h, records, validEnd, true, nil // torn or corrupt tail
		}
		if _, derr := decodeRecord(fr); derr != nil {
			return h, records, validEnd, true, nil
		}
		records++
		validEnd += 4 + int64(len(fr)) // length prefix + frame
	}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
