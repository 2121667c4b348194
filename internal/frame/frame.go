// Package frame is the one codec behind every CRC-sealed file and message
// that crosses the batch/online split: the snapshot header, the
// generation manifest, the fold state, and the WAL's segment header and
// record frames. A frame is a
// magic (possibly empty), little-endian fields, and a CRC32-IEEE trailer
// over every byte before it. Each layout stays with the package that owns
// it; this package writes fields, seals, and reads them back without ever
// reading past the input or trusting a count the input cannot hold.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// TrailerSize is the length of the CRC32 a sealed frame ends with.
const TrailerSize = 4

// Encoder appends one frame's fields to a buffer.
type Encoder struct {
	buf   []byte
	start int // where the frame begins: Seal covers buf[start:]
}

// Append starts a frame at the end of buf with magic as its first bytes.
func Append(buf []byte, magic string) Encoder {
	return Encoder{buf: append(buf, magic...), start: len(buf)}
}

// U16 … Raw append one field each; integers are little-endian, F64 is the
// float's IEEE 754 bits.
func (e *Encoder) U16(v uint16)     { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Encoder) U32(v uint32)     { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) F64(v float64)    { e.U64(math.Float64bits(v)) }
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *Encoder) Raw(b []byte)     { e.buf = append(e.buf, b...) }

// Str writes s behind a uvarint length; a reader takes it back with
// Count over that length, then Raw.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes returns the buffer unsealed: a section whose CRC is kept elsewhere.
func (e *Encoder) Bytes() []byte { return e.buf }

// Seal appends the CRC32 of the frame and returns the buffer.
func (e *Encoder) Seal() []byte {
	return binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf[e.start:]))
}

// Decoder reads a frame's fields in order. The first read that would run
// past the end sets a sticky error and every later read returns zero
// values, so a caller checks once, with Done.
type Decoder struct {
	b   []byte
	off int
	err error
}

// Open checks b's length, magic and CRC trailer and returns a decoder
// over the fields between them.
func Open(b []byte, magic string) (Decoder, error) {
	if len(b) < len(magic)+TrailerSize {
		return Decoder{}, fmt.Errorf("frame: %d bytes, too short for a %q frame", len(b), magic)
	}
	if string(b[:len(magic)]) != magic {
		return Decoder{}, fmt.Errorf("frame: magic %q, want %q", b[:len(magic)], magic)
	}
	body := b[:len(b)-TrailerSize]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(b[len(body):]); got != want {
		return Decoder{}, fmt.Errorf("frame: %q frame CRC mismatch (got %08x, want %08x)", magic, got, want)
	}
	return Decoder{b: body, off: len(magic)}, nil
}

// NewDecoder reads fields from b, which has no magic or trailer: a
// section whose CRC is kept elsewhere.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("frame: "+format, args...)
	}
}

// Raw returns the next n bytes, aliasing the input; nil once an error is set.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated: %d bytes wanted at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return p
}

// U16 … Uvarint read the fields Encoder writes; each returns zero once an
// error is set.
func (d *Decoder) U16() uint16 {
	if p := d.Raw(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if p := d.Raw(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if p := d.Raw(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Count admits n as the number of elements that follow, each taking at
// least minBytes, and refuses (0 and the sticky error) a claim the bytes
// left cannot hold. Call it before allocating for n elements.
func (d *Decoder) Count(n uint64, what string, minBytes int) int {
	if d.err != nil {
		return 0
	}
	if left := len(d.b) - d.off; n > uint64(left/max(minBytes, 1)) {
		d.fail("%s count %d exceeds what the %d bytes left at offset %d can hold", what, n, left, d.off)
		return 0
	}
	return int(n)
}

// Pos is the offset of the next read.
func (d *Decoder) Pos() int { return d.off }

// Done returns the first read error, or an error when bytes are left.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}
