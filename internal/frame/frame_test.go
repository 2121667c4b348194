package frame

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFrame holds the codec to five properties over arbitrary bytes,
// seeded with every frozen format under testdata/formats: the decoder
// never panics, no read returns bytes past the input, Count never admits
// more than the bytes left hold, Seal then Open round-trips, and any
// single flipped bit of a sealed frame fails Open.
func FuzzFrame(f *testing.F) {
	for _, name := range []string{"fig3.v3.snap", "gen-00000001.mf", "wal-00000000.seg", "fold-state.bin"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "formats", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		magic := ""
		if len(data) >= 8 {
			magic = string(data[:8])
		}
		// The sealed prefixes the formats have: a WAL segment header (32
		// bytes), a manifest (56), a snapshot header (200), a whole file.
		for _, n := range []int{32, 56, 200, len(data)} {
			if n > len(data) {
				continue
			}
			if d, err := Open(data[:n], magic); err == nil {
				walk(t, &d, data[len(magic):n-TrailerSize], len(magic))
			}
		}
		d := NewDecoder(data)
		walk(t, &d, data, 0)

		sealed, fields := encodeFields(magic, data)
		d, err := Open(sealed, magic)
		if err != nil {
			t.Fatalf("a frame just sealed does not open: %v", err)
		}
		decodeFields(t, &d, fields)
		// Flip, one at a time, the bits the fields' values name: across
		// inputs that is every bit of the frame, at a cost per input low
		// enough for the fuzzer to keep minimizing.
		for _, f := range append(fields, field{v: uint64(len(data))}) {
			bit := int(f.v % uint64(8*len(sealed)))
			sealed[bit/8] ^= 1 << (bit % 8)
			if _, err := Open(sealed, magic); err == nil {
				t.Fatalf("a sealed %d-byte frame with bit %d flipped opens", len(sealed), bit)
			}
			sealed[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// walk reads body (which starts at offset base of the decoder's input)
// with reads chosen by the bytes themselves, checking that every read
// stays inside it, until one fails or the body is used up.
func walk(t *testing.T, d *Decoder, body []byte, base int) {
	t.Helper()
	for step := 0; step <= len(body) && d.err == nil; step++ {
		at := d.Pos()
		var op byte
		if at-base < len(body) {
			op = body[at-base]
		}
		switch op % 8 {
		case 0:
			d.Raw(1)
		case 1:
			d.U16()
		case 2:
			d.U32()
		case 3:
			d.U64()
		case 4:
			d.F64()
		case 5:
			d.Uvarint()
		case 6:
			s := string(d.Raw(d.Count(d.Uvarint(), "string byte", 1)))
			if d.err == nil && s != string(body[d.Pos()-base-len(s):d.Pos()-base]) {
				t.Fatalf("a string at %d read as %q, not the bytes before offset %d", at, s, d.Pos())
			}
		case 7:
			claim := d.Uvarint()
			minBytes, from := int(op/8)%16+1, d.Pos()
			n := d.Count(claim, "element", minBytes)
			if left := len(body) - (from - base); d.err == nil && n > left/minBytes {
				t.Fatalf("Count admitted %d elements of ≥ %d bytes with %d bytes left", n, minBytes, left)
			}
			p := d.Raw(n)
			if d.err == nil && (cap(p) != n || !bytes.Equal(p, body[from-base:from-base+n])) {
				t.Fatalf("Raw(%d) at %d returned %d bytes (cap %d) that are not the input's", n, from, len(p), cap(p))
			}
		}
		if d.Pos() < at || d.Pos()-base > len(body) {
			t.Fatalf("a read moved the offset from %d to %d in a %d-byte body", at, d.Pos(), len(body))
		}
	}
	d.Done()
}

// field is one value encodeFields wrote: its kind and its value.
type field struct {
	kind byte
	v    uint64
	b    []byte
}

// encodeFields seals a frame of up to 24 fields taken from data, nine
// bytes at a time: a kind, then the value.
func encodeFields(magic string, data []byte) ([]byte, []field) {
	e := Append([]byte("prefix outside the frame"), magic)
	var fields []field
	for i := 0; i+9 <= len(data) && len(fields) < 24; i += 9 {
		f := field{kind: data[i] % 8, v: binary.LittleEndian.Uint64(data[i+1:])}
		switch f.kind {
		case 0:
			e.Raw([]byte{uint8(f.v)})
		case 1:
			e.U16(uint16(f.v))
		case 2:
			e.U32(uint32(f.v))
		case 3:
			e.U64(f.v)
		case 4:
			e.F64(math.Float64frombits(f.v))
		case 5:
			e.Uvarint(f.v)
		case 6:
			f.b = data[i+1 : i+1+int(f.v%9)]
			e.Str(string(f.b))
		case 7:
			f.b = data[i+1 : i+1+int(f.v%9)]
			e.Raw(f.b)
		}
		fields = append(fields, f)
	}
	sealed := e.Seal()
	return sealed[len("prefix outside the frame"):], fields
}

// decodeFields reads back what encodeFields wrote and nothing more.
func decodeFields(t *testing.T, d *Decoder, fields []field) {
	t.Helper()
	for i, f := range fields {
		var ok bool
		switch f.kind {
		case 0:
			p := d.Raw(1)
			ok = p != nil && p[0] == uint8(f.v)
		case 1:
			ok = d.U16() == uint16(f.v)
		case 2:
			ok = d.U32() == uint32(f.v)
		case 3:
			ok = d.U64() == f.v
		case 4:
			ok = math.Float64bits(d.F64()) == f.v
		case 5:
			ok = d.Uvarint() == f.v
		case 6:
			ok = string(d.Raw(d.Count(d.Uvarint(), "string byte", 1))) == string(f.b)
		case 7:
			ok = bytes.Equal(d.Raw(len(f.b)), f.b)
		}
		if !ok {
			t.Fatalf("field %d (kind %d) did not read back: %v", i, f.kind, d.err)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatalf("a round trip of %d fields: %v", len(fields), err)
	}
}
