package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"simrankpp/internal/frame"
)

// FuzzWALDecode throws arbitrary bytes at the WAL frame reader and
// record decoder. The invariants under fuzz: no panic, no allocation
// beyond the fixed frame bound however the length prefix lies, and any
// payload that decodes must round-trip through the encoder to the exact
// same bytes (so no two distinct wire forms decode to one record).
func FuzzWALDecode(f *testing.F) {
	var valid []byte
	valid = appendFrame(valid, Record{Query: "camera", Ad: "zoom-ad", Impressions: 30, Clicks: 10, Rate: 0.33})
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-3]...)) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[6] ^= 0x10
	f.Add(flipped)
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)) // lying length prefix
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add([]byte{})
	two := append([]byte(nil), valid...)
	two = appendFrame(two, Record{Query: "q", Ad: "a", Impressions: 3, Clicks: 1, Rate: 1})
	f.Add(two)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		scratch := make([]byte, 0, 64)
		for i := 0; i < 1_000_000; i++ {
			fr, err := readFrame(br, &scratch)
			if err != nil {
				break // rejected — the only other exit is clean EOF
			}
			if n := len(fr) - frame.TrailerSize; n < minPayloadLen || n > maxPayloadLen {
				t.Fatalf("readFrame returned a %d-byte payload outside [%d,%d]", n, minPayloadLen, maxPayloadLen)
			}
			rec, err := decodeRecord(fr)
			if err != nil {
				continue // a bad CRC or an invalid record: rejected is fine
			}
			// Canonical wire form: decode∘encode must reproduce the frame.
			if reframed := appendFrame(nil, rec); !bytes.Equal(reframed[4:], fr) {
				t.Fatalf("decoded record %+v re-encodes to different frame bytes", rec)
			}
		}
		if cap(scratch) > maxPayloadLen+frame.TrailerSize {
			t.Fatalf("decoder allocated %d bytes; bound is %d", cap(scratch), maxPayloadLen+frame.TrailerSize)
		}
	})
}
