package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
)

// FuzzOpenSnapshot throws arbitrary bytes at the snapshot reader — header,
// string table, route map, directory, and the lazily-loaded segments the
// refresh path byte-copies. The contract under corruption is an error, not
// a panic and not an unbounded allocation: every length the file claims is
// validated against the file's actual size before it drives a make().
// The hand-picked corruption tests (snapshot_test.go) pin specific error
// paths; the fuzzer hunts the ones nobody picked.
func FuzzOpenSnapshot(f *testing.F) {
	// Seed with real snapshots — monolithic and sharded — so mutations
	// start from deep in the happy path, plus a few shallow corruptions.
	g := clickgraph.Fig3()
	res := wholeRun(f, g, core.DefaultConfig())
	var mono imageBuffer
	if err := WriteSnapshotTopK(&mono, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		f.Fatal(err)
	}
	f.Add(mono.Bytes())

	b := clickgraph.NewBuilder()
	for c := 0; c < 3; c++ {
		for q := 0; q < 4; q++ {
			for a := 0; a < 3; a++ {
				name := func(kind string, i int) string { return string(rune('x'+c)) + kind + string(rune('0'+i)) }
				if err := b.AddClick(name("q", q), name("a", a), 0.5); err != nil {
					f.Fatal(err)
				}
			}
		}
	}
	sg := b.Build()
	sres, err := core.RunSharded(sg, core.DefaultConfig(), partition.ComponentPlan(sg),
		core.ShardOptions{})
	if err != nil {
		f.Fatal(err)
	}
	var sharded imageBuffer
	if err := WriteSnapshotTopK(&sharded, sres, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		f.Fatal(err)
	}
	f.Add(sharded.Bytes())

	// v3 seeds: a sharded snapshot carrying a precomputed top-k rewrite
	// section (bid-filtered, so the header's bid hash is nonzero), the
	// same with its top-k region truncated away, and one with a byte
	// flipped inside the first shard's blob (a valid header whose section
	// must quarantine, not crash).
	var topk imageBuffer
	bids := map[string]bool{sg.Query(0): true, sg.Query(5): true}
	if err := WriteSnapshotTopK(&topk, sres, TopKOptions{K: 3, BidTerms: bids}); err != nil {
		f.Fatal(err)
	}
	f.Add(topk.Bytes())
	f.Add(topk.Bytes()[:headerSize+dirEntrySize])
	if ref, err := NewSnapshot(bytes.NewReader(topk.Bytes()), int64(topk.Len())); err == nil {
		if off, ln := ref.dir[0].tkOff, ref.dir[0].tkLen; ln > 0 {
			blobFlip := append([]byte(nil), topk.Bytes()...)
			blobFlip[int(off)+int(ln)/2] ^= 0x01
			f.Add(blobFlip)
		}
		ref.Close()
	}

	// A file whose checksums all match but whose first query segment names
	// a node past the side: only the structural check on first touch
	// stands between it and an out-of-range name lookup.
	hostile, _ := resealQuerySegment(f, sharded.Bytes(), hostileSegments["node id past the side"])
	f.Add(hostile)

	// Generation manifests live beside snapshots on disk; a confused
	// operator (or a buggy rollback script) pointing the daemon at one
	// must get a clean rejection. Seed the raw manifest, a padded one
	// (past the header-size gate, into the magic check), and a hybrid
	// with snapshot magic spliced over manifest bytes.
	mf := encodeManifest(&Generation{
		ID: 7, Fingerprint: 0xdeadbeef, CRC: 0x1234, Size: 4096,
		CreatedAt: time.Unix(1700000000, 0), DirtyShards: 2,
	})
	f.Add(append([]byte(nil), mf...))
	f.Add(append(append([]byte(nil), mf...), make([]byte, headerSize)...))
	hybrid := append([]byte(nil), mf...)
	hybrid = append(hybrid, mf...)
	hybrid = append(hybrid, make([]byte, headerSize)...)
	copy(hybrid, snapshotMagic)
	f.Add(hybrid)

	truncated := append([]byte(nil), mono.Bytes()...)
	f.Add(truncated[:len(truncated)*2/3])
	huge := append([]byte(nil), mono.Bytes()...)
	binary.LittleEndian.PutUint64(huge[80:], ^uint64(0)) // stringsLen = 2^64-1
	f.Add(huge)
	f.Add([]byte("SRPPSNAP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := NewSnapshot(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// An accepted snapshot must survive its whole read surface.
		_ = snap.PreloadAll()
		m := snap.Meta()
		for q := 0; q < m.NumQueries; q++ {
			// Callers index name tables with the ids a ranking returns.
			for _, r := range snap.TopRewrites(q, 3) {
				if r.Node < 0 || r.Node >= m.NumQueries {
					t.Fatalf("TopRewrites returned node %d outside [0,%d)", r.Node, m.NumQueries)
				}
			}
			id, shard, ok := snap.PrevQuery(snap.Query(q))
			if ok && (id != q || shard != int(snap.qRoute[q])) {
				// Duplicate names may remap; ids must still be in range.
				if id < 0 || id >= m.NumQueries {
					t.Fatalf("PrevQuery returned id %d outside [0,%d)", id, m.NumQueries)
				}
			}
			// The precomputed section decodes under the same no-panic
			// contract; a bad blob answers (nil, false), never garbage
			// node ids.
			if recs, ok := snap.PrecomputedRewrites(q, 3); ok {
				for _, r := range recs {
					if r.Node < 0 || r.Node >= m.NumQueries {
						t.Fatalf("PrecomputedRewrites returned node %d outside [0,%d)", r.Node, m.NumQueries)
					}
				}
			}
		}
		for a := 0; a < m.NumAds; a++ {
			for _, r := range snap.TopSimilarAds(a, 3) {
				if r.Node < 0 || r.Node >= m.NumAds {
					t.Fatalf("TopSimilarAds returned node %d outside [0,%d)", r.Node, m.NumAds)
				}
			}
		}
		for i := 0; i < snap.NumShards(); i++ {
			snap.ShardFingerprint(i)
		}
	})
}

// FuzzSplitBatchResponse throws arbitrary bytes at the /batch splitter,
// which the gateway runs over whatever a replica answered. It must never
// panic or index past the body; whatever it accepts json.Unmarshal into a
// BatchResponse accepts too, with the same elements (the check the
// gateway's decode used to be); and the elements re-encode and split back
// to themselves. Seeds are real replica bodies — answers, an error item
// whose query holds every structural character — truncated and
// bit-flipped, so mutations start inside strings, escapes and nesting.
func FuzzSplitBatchResponse(f *testing.F) {
	res := wholeRun(f, clickgraph.Fig3(), core.DefaultConfig())
	var snap imageBuffer
	if err := WriteSnapshotTopK(&snap, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		f.Fatal(err)
	}
	idx, err := NewSnapshot(bytes.NewReader(snap.Bytes()), int64(snap.Len()))
	if err != nil {
		f.Fatal(err)
	}
	h := NewServer(idx, DefaultServerConfig()).Handler()
	for _, queries := range [][]string{
		{"camera"},
		{"camera", "pc", "digital camera", "tv", "flower"},
		{"camera", "<b>&  \"no\\such\" query\x7f", "a,b]c}d[e{f\\", "pc"},
	} {
		reqBody, _ := json.Marshal(BatchRequest{Queries: queries, Top: 3})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(reqBody)))
		body := rec.Body.Bytes()
		if _, ok := SplitBatchResponse(nil, body); rec.Code != http.StatusOK || !ok {
			f.Fatalf("seed /batch = %d %s (split ok %v)", rec.Code, body, ok)
		}
		f.Add(body)
		for _, cut := range []int{len(body) - 2, len(body) * 2 / 3, len(body) / 2, len(`{"results":[`)} {
			f.Add(body[:cut])
		}
		for _, at := range []int{1, len(`{"resu`), len(body) / 3, len(body) / 2, len(body) - 3} {
			for _, bit := range []byte{0x01, 0x20, 0x80} {
				flipped := append([]byte(nil), body...)
				flipped[at] ^= bit
				f.Add(flipped)
			}
		}
	}
	f.Add([]byte(`{"results":[]}`))
	f.Add([]byte(" {\n\"results\" : [ 1 , \"]\" , [ { } ] ]\t}\r\n"))
	f.Add([]byte(`{"results":[1],"results":[2]}`))
	f.Add([]byte(`{"results":["\`))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSplitAgainstUnmarshal(t, data)
		items, ok := SplitBatchResponse(nil, data)
		if !ok {
			return
		}
		again, ok := SplitBatchResponse(nil, EncodeBatchResponse(items))
		if !ok || len(again) != len(items) {
			t.Fatalf("the %d elements of %q re-encode to a body that splits into %d (ok %v)", len(items), data, len(again), ok)
		}
		for i := range items {
			if !bytes.Equal(again[i], items[i]) {
				t.Fatalf("element %d of %q is %q, %q after a round trip", i, data, items[i], again[i])
			}
		}
	})
}

// readBatchRequestUnmarshal is ReadBatchRequest with every body decoded
// by json.Unmarshal: the reference FuzzReadBatchRequest holds the
// scanner's path for plain bodies to.
func readBatchRequestUnmarshal(w http.ResponseWriter, r *http.Request) (BatchRequest, bool) {
	var req BatchRequest
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON body to /batch", http.StatusMethodNotAllowed)
		return req, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad batch body: %v", err), http.StatusBadRequest)
		return req, false
	}
	if len(req.Queries) == 0 {
		http.Error(w, "empty batch: give queries", http.StatusBadRequest)
		return req, false
	}
	if len(req.Queries) > MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d queries exceeds the %d limit", len(req.Queries), MaxBatch), http.StatusBadRequest)
		return req, false
	}
	if req.Top < 0 {
		http.Error(w, fmt.Sprintf("bad top %d: want a positive integer", req.Top), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// FuzzReadBatchRequest holds ReadBatchRequest, which reads a plain body
// with the scanner and hands every other to json.Unmarshal, to the
// reference that unmarshals them all: on every body the same verdict,
// status, answer, queries and top. On every accepted body the sub-batch
// body a gateway appends (BatchRequest.AppendJSON) is json.Marshal's.
// Seeds sit on both sides of the line between the two paths: escapes,
// HTML characters, non-ASCII and invalid UTF-8, keys json.Unmarshal
// matches without case or by Unicode folding ("querieſ"), null, duplicate
// keys, a top that is not an int, and trailing data.
func FuzzReadBatchRequest(f *testing.F) {
	canonical, _ := json.Marshal(BatchRequest{Queries: []string{"camera", "digital camera", "pc"}, Top: 3})
	oversized, _ := json.Marshal(BatchRequest{Queries: make([]string, MaxBatch+1)})
	for _, body := range []string{
		string(canonical),
		string(oversized),
		`{"queries":["camera","pc"]}`,
		" {\n\"queries\" : [ \"camera\" ,\t\"pc\" ] ,\r\n \"top\" : 2 } \n",
		`{"queries":[],"top":1}`,
		`{"queries":["camera"],"top":-1}`,
		`{"queries":["camera"],"top":0}`,
		`{"queries":["a\"b","c\\d","\u0063amera","\/"]}`,
		`{"queries":["<b>&amp;</b>","\u003cb\u003e"],"top":1}`,
		"{\"queries\":[\"caf\u00e9\",\"\U0001f50d\",\"bad \xff\xfe utf-8\",\"line\u2028para\",\"del\x7f\",\"tab\there\"]}",
		`{"queries":["\ud800","\udc00\ud800"]}`,
		`{"Queries":["camera"],"TOP":2}`,
		`{"querieſ":["camera"]}`,
		`{"queries":null}`,
		`null`,
		`{"queries":[null,"camera"]}`,
		`{"queries":["camera"],"top":null}`,
		`{"queries":["camera"],"queries":["pc"]}`,
		`{"queries":["camera"],"top":1,"top":2}`,
		`{"top":2,"queries":["camera"]}`,
		`{"queries":["camera"],"top":2,"more":true}`,
		`{"queries":["camera"],"top":1.0}`,
		`{"queries":["camera"],"top":1e2}`,
		`{"queries":["camera"],"top":-0}`,
		`{"queries":["camera"],"top":9223372036854775807}`,
		`{"queries":["camera"],"top":9223372036854775808}`,
		`{"queries":["camera"],"top":01}`,
		`{"queries":["camera"],"top":"2"}`,
		`{"queries":["camera"]} garbage`,
		`{"queries":["camera"]}{"queries":["pc"]}`,
		`{"queries":["camera",]}`,
		`{"queries":["camera"`,
		`{"queries":["came`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"queries":["` + strings.Repeat(`x","`, MaxBatch) + `x"]}`))

	read := func(body []byte, fn func(http.ResponseWriter, *http.Request) (BatchRequest, bool)) (*httptest.ResponseRecorder, BatchRequest, bool) {
		rec := httptest.NewRecorder()
		req, ok := fn(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		return rec, req, ok
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		gotRec, got, gotOK := read(body, ReadBatchRequest)
		wantRec, want, wantOK := read(body, readBatchRequestUnmarshal)
		if gotOK != wantOK || gotRec.Code != wantRec.Code || !bytes.Equal(gotRec.Body.Bytes(), wantRec.Body.Bytes()) {
			t.Fatalf("body %q: ReadBatchRequest = %v %d %q, the Unmarshal reference = %v %d %q",
				body, gotOK, gotRec.Code, gotRec.Body, wantOK, wantRec.Code, wantRec.Body)
		}
		if !slices.Equal(got.Queries, want.Queries) || got.Top != want.Top {
			t.Fatalf("body %q: ReadBatchRequest read %q top %d, the Unmarshal reference %q top %d",
				body, got.Queries, got.Top, want.Queries, want.Top)
		}
		if !gotOK {
			return
		}
		marshaled, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if appended := got.AppendJSON(nil); !bytes.Equal(appended, marshaled) {
			t.Fatalf("body %q: AppendJSON\n %q\njson.Marshal\n %q", body, appended, marshaled)
		}
	})
}
