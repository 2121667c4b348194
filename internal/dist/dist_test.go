package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
	"simrankpp/internal/sparse"
)

// The fixtures mirror serve's refresh tests: a deterministic 4-cluster
// graph with every node interned up front (stable ids across rebuilds)
// and per-cluster weights derived from seeds[c], so bumping one
// cluster's seed models a 1-cluster churn step. Each cluster is exactly
// two connected components (equal-parity edges), so the component plan
// has 8 shards and a 1-cluster bump dirties 2 of them.

func refreshGraph(t *testing.T, seeds [4]int) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	for c := 0; c < 4; c++ {
		for q := 0; q < 10; q++ {
			b.AddQuery(fmt.Sprintf("c%d-q%d", c, q))
		}
		for a := 0; a < 8; a++ {
			b.AddAd(fmt.Sprintf("c%d-a%d", c, a))
		}
	}
	for c := 0; c < 4; c++ {
		for q := 0; q < 10; q++ {
			for a := 0; a < 8; a++ {
				if q%2 != a%2 {
					continue
				}
				clicks := int64((q*7+a*3+seeds[c])%9 + 1)
				err := b.AddEdge(fmt.Sprintf("c%d-q%d", c, q), fmt.Sprintf("c%d-a%d", c, a),
					clickgraph.EdgeWeights{
						Impressions:       clicks * 3,
						Clicks:            clicks,
						ExpectedClickRate: float64((q*5+a*11+seeds[c])%100) / 100,
					})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

func refreshCfg() core.Config {
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.Channel = core.ChannelClicks
	cfg.Iterations = 40
	cfg.Tolerance = 1e-10
	cfg.PruneEpsilon = 1e-8
	return cfg
}

// buildGeneration runs g sharded (scores retained) and snapshots it.
func buildGeneration(t *testing.T, g *clickgraph.Graph, cfg core.Config) ([]byte, *serve.Snapshot) {
	t.Helper()
	return snapshotOf(t, runGeneration(t, g, cfg))
}

func runGeneration(t *testing.T, g *clickgraph.Graph, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.RunSharded(g, cfg, partition.ComponentPlan(g), core.ShardOptions{Workers: 3, RetainShardScores: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func snapshotOf(t *testing.T, res *core.Result) ([]byte, *serve.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := serve.WriteSnapshotTopK(&buf, res, serve.TopKOptions{K: serve.DefaultRewriteTopK}); err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snap
}

// localRefreshBytes runs one single-machine refresh step in memory
// (diff, the in-process runner, assembly) — the bytes every distributed
// path must reproduce exactly.
func localRefreshBytes(t *testing.T, g *clickgraph.Graph, prev *serve.Snapshot) (*serve.ShardRun, *partition.Diff, []byte) {
	t.Helper()
	diff, err := partition.DiffPlans(prev, g)
	if err != nil {
		t.Fatalf("DiffPlans: %v", err)
	}
	run, err := serve.PoolRunner(3)(context.Background(), g, prev, diff.Plan, diff.Dirty)
	if err != nil {
		t.Fatalf("PoolRunner: %v", err)
	}
	return run, diff, assembleBytes(t, g, prev, diff, run)
}

// assembleBytes assembles the refreshed snapshot from a shard run.
func assembleBytes(t *testing.T, g *clickgraph.Graph, prev *serve.Snapshot, diff *partition.Diff, run *serve.ShardRun) []byte {
	t.Helper()
	var buf bytes.Buffer
	st, err := serve.AssembleRefresh(&buf, prev, g, diff.Plan, diff.Dirty, run, nil)
	if err != nil {
		t.Fatalf("AssembleRefresh: %v", err)
	}
	if st.DirtyShards != diff.DirtyShards {
		t.Fatalf("assembled %d dirty shards, want %d", st.DirtyShards, diff.DirtyShards)
	}
	return buf.Bytes()
}

// maskVolatile zeroes the only header fields two equivalent snapshots
// may legitimately disagree on: the generation timestamp at [128,136)
// and the header CRC at [196,200) that covers it (format v3 layout).
func maskVolatile(t *testing.T, b []byte) []byte {
	t.Helper()
	const generatedAtOff, headerCRCOff = 128, 196
	if len(b) < headerCRCOff+4 {
		t.Fatalf("snapshot too short to mask: %d bytes", len(b))
	}
	out := append([]byte(nil), b...)
	for i := generatedAtOff; i < generatedAtOff+8; i++ {
		out[i] = 0
	}
	for i := headerCRCOff; i < headerCRCOff+4; i++ {
		out[i] = 0
	}
	return out
}

// startWorkers launches n in-process worker servers and returns their
// base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer((&Worker{Workers: 3, Logf: t.Logf}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// dirtyLease diffs next against prev and builds the lease for the first
// dirty shard.
func dirtyLease(t *testing.T, prev *serve.Snapshot, next *clickgraph.Graph) (*Lease, *partition.Diff) {
	t.Helper()
	diff, err := partition.DiffPlans(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	for si, d := range diff.Dirty {
		if !d {
			continue
		}
		cfg := prev.Config()
		l, err := buildLease(next, prev, diff.Plan, si, diff.Plan.Fingerprint(), cfg, cfg.Tolerance > 0)
		if err != nil {
			t.Fatal(err)
		}
		return l, diff
	}
	t.Fatal("no dirty shard in diff")
	return nil, nil
}

func eqSlices[T comparable](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestLeaseRoundTrip(t *testing.T) {
	cfg := refreshCfg()
	_, prev := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), cfg)
	l, _ := dirtyLease(t, prev, refreshGraph(t, [4]int{9, 2, 3, 4}))
	if len(l.Edges) == 0 || len(l.WarmQuery) == 0 || len(l.WarmAd) == 0 {
		t.Fatalf("fixture lease is degenerate: %d edges, %d warm query pairs, %d warm ad pairs",
			len(l.Edges), len(l.WarmQuery), len(l.WarmAd))
	}

	enc, err := l.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeLease(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Generation != l.Generation || dec.Shard != l.Shard || dec.Fingerprint != l.Fingerprint {
		t.Fatalf("identity (%016x, %d, %016x) != (%016x, %d, %016x)",
			dec.Generation, dec.Shard, dec.Fingerprint, l.Generation, l.Shard, l.Fingerprint)
	}
	if dec.Config != l.Config {
		t.Fatalf("config %+v != %+v", dec.Config, l.Config)
	}
	eqSlices(t, "QueryNames", dec.QueryNames, l.QueryNames)
	eqSlices(t, "AdNames", dec.AdNames, l.AdNames)
	eqSlices(t, "QueryIDs", dec.QueryIDs, l.QueryIDs)
	eqSlices(t, "AdIDs", dec.AdIDs, l.AdIDs)
	eqSlices(t, "Edges", dec.Edges, l.Edges)
	eqSlices(t, "WarmQuery", dec.WarmQuery, l.WarmQuery)
	eqSlices(t, "WarmAd", dec.WarmAd, l.WarmAd)
}

// TestLeaseDropsUnusableSeeds: nothing checks a stored generation's scores
// on the way in, so a NaN or a negative one in the previous snapshot must
// stay out of every lease, as core's seeder keeps it out of a local warm
// start — a lease ships exactly the seeds the local path would use.
func TestLeaseDropsUnusableSeeds(t *testing.T) {
	res := runGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), refreshCfg())
	spoil := func(f *sparse.PairFrontier, bad float64) {
		first := true
		f.Map(func(_, _ int, v float64) (float64, bool) {
			if first {
				first, v = false, bad
			}
			return v, true
		})
	}
	for i := range res.ShardScores {
		spoil(res.ShardScores[i].QueryScores, math.NaN())
		spoil(res.ShardScores[i].AdScores, -0.5)
	}
	_, prev := snapshotOf(t, res)
	next := refreshGraph(t, [4]int{9, 2, 3, 4})
	diff, err := partition.DiffPlans(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 0
	for si, d := range diff.Dirty {
		if !d {
			continue
		}
		l, err := buildLease(next, prev, diff.Plan, si, diff.Plan.Fingerprint(), prev.Config(), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range append(l.WarmQuery, l.WarmAd...) {
			if !(p.Score > 0 && p.Score <= math.MaxFloat64) {
				t.Fatalf("shard %d lease seeds pair (%d,%d) with %v", si, p.I, p.J, p.Score)
			}
			seeds++
		}
	}
	if seeds == 0 {
		t.Fatal("fixture leases carry no warm seeds")
	}
}

// TestLeaseDecodeRejectsCorruption flips every byte of an encoded lease
// in turn: the trailing CRC (or a structural check behind it) must
// reject each mutation — a corrupted lease must never reach an engine.
func TestLeaseDecodeRejectsCorruption(t *testing.T) {
	cfg := refreshCfg()
	_, prev := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), cfg)
	l, _ := dirtyLease(t, prev, refreshGraph(t, [4]int{9, 2, 3, 4}))
	enc, err := l.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x40
		if _, err := DecodeLease(mut); err == nil {
			t.Fatalf("decode accepted a lease with byte %d corrupted", off)
		}
	}
	if _, err := DecodeLease(enc[:len(enc)-1]); err == nil {
		t.Fatal("decode accepted a truncated lease")
	}
	if _, err := DecodeLease(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("decode accepted a lease with trailing bytes")
	}
}

// TestDecodeLeaseBoundsCountsByBytesLeft: a 46-byte lease whose CRC holds
// but which claims 2^24 queries is refused before anything the size of the
// claim is allocated — a worker decodes whatever is POSTed to it.
func TestDecodeLeaseBoundsCountsByBytesLeft(t *testing.T) {
	b := []byte(leaseMagic)
	b = binary.LittleEndian.AppendUint64(b, 1) // generation
	b = binary.LittleEndian.AppendUint32(b, 0) // shard
	b = binary.LittleEndian.AppendUint64(b, 1) // fingerprint
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = append(b, "{}"...)
	b = binary.LittleEndian.AppendUint32(b, 1<<24) // queries
	b = binary.LittleEndian.AppendUint32(b, 0)     // ads
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeLease(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decode accepted a 46-byte lease claiming 2^24 queries")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a %d-byte lease allocated %d bytes", len(b), grew)
	}
}

func TestSegmentResponseRoundTripAndCorruption(t *testing.T) {
	cfg := refreshCfg()
	_, prev := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), cfg)
	l, _ := dirtyLease(t, prev, refreshGraph(t, [4]int{9, 2, 3, 4}))
	w := &Worker{Workers: 3, Logf: t.Logf}
	resp, err := w.RefreshShard(l)
	if err != nil {
		t.Fatal(err)
	}

	enc := resp.Encode()
	dec, err := DecodeSegmentResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Generation != resp.Generation || dec.Shard != resp.Shard || dec.Fingerprint != resp.Fingerprint ||
		dec.Iterations != resp.Iterations || dec.Converged != resp.Converged ||
		dec.QueryCRC != resp.QueryCRC || dec.AdCRC != resp.AdCRC {
		t.Fatalf("decoded response header %+v differs", dec)
	}
	eqSlices(t, "QuerySeg", dec.QuerySeg, resp.QuerySeg)
	eqSlices(t, "AdSeg", dec.AdSeg, resp.AdSeg)

	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x40
		if _, err := DecodeSegmentResponse(mut); err == nil {
			t.Fatalf("decode accepted a response with byte %d corrupted", off)
		}
	}
	if _, err := DecodeSegmentResponse(enc[:len(enc)-1]); err == nil {
		t.Fatal("decode accepted a truncated response")
	}
}

// TestWorkerShardByteIdentity pins the distributed exactness contract at
// the shard level: a worker executing a lease produces segment bytes
// identical to what the local dirty-shard path encodes for that shard.
func TestWorkerShardByteIdentity(t *testing.T) {
	cfg := refreshCfg()
	_, prev := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), cfg)
	next := refreshGraph(t, [4]int{9, 2, 3, 4})

	run, diff, _ := localRefreshBytes(t, next, prev)
	w := &Worker{Workers: 3, Logf: t.Logf}
	checked := 0
	for si, d := range diff.Dirty {
		if !d {
			continue
		}
		want := run.Segments[si]
		l, err := buildLease(next, prev, diff.Plan, si, diff.Plan.Fingerprint(), prev.Config(), prev.Config().Tolerance > 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := w.RefreshShard(l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.QuerySeg, want.QuerySeg) || resp.QueryCRC != want.QueryCRC {
			t.Fatalf("shard %d query segment differs from the local path's", si)
		}
		if !bytes.Equal(resp.AdSeg, want.AdSeg) || resp.AdCRC != want.AdCRC {
			t.Fatalf("shard %d ad segment differs from the local path's", si)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no dirty shards checked")
	}
}

// TestDistributedRefreshByteIdentical is the tentpole contract end to
// end: a refresh computed by a worker fleet assembles into exactly the
// bytes the single-machine refresh writes, modulo the generation
// timestamp.
func TestDistributedRefreshByteIdentical(t *testing.T) {
	cfg := refreshCfg()
	_, prev := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), cfg)
	next := refreshGraph(t, [4]int{9, 2, 3, 4})
	_, _, want := localRefreshBytes(t, next, prev)

	diff, err := partition.DiffPlans(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(startWorkers(t, 2), Options{Logf: t.Logf})
	fleet, err := c.RefreshShards(context.Background(), next, prev, diff.Plan, diff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Stats.RemoteShards != diff.DirtyShards || fleet.Stats.LocalFallbackShards != 0 {
		t.Fatalf("stats %+v: want %d remote shards, 0 local", fleet.Stats, diff.DirtyShards)
	}
	got := assembleBytes(t, next, prev, diff, &fleet.ShardRun)
	if !bytes.Equal(maskVolatile(t, got), maskVolatile(t, want)) {
		t.Fatal("distributed refresh bytes differ from the local refresh")
	}
	snap, err := serve.NewSnapshot(bytes.NewReader(got), int64(len(got)))
	if err != nil {
		t.Fatalf("assembled snapshot does not open: %v", err)
	}
	if m := snap.Meta(); m.LastRefreshDirty != diff.DirtyShards {
		t.Errorf("LastRefreshDirty = %d, want %d", m.LastRefreshDirty, diff.DirtyShards)
	}
}

// TestDistributedZeroDirty: an unchanged graph dispatches nothing and
// reproduces the previous payload byte for byte.
func TestDistributedZeroDirty(t *testing.T) {
	cfg := refreshCfg()
	seeds := [4]int{1, 2, 3, 4}
	prevBytes, prev := buildGeneration(t, refreshGraph(t, seeds), cfg)
	next := refreshGraph(t, seeds)

	diff, err := partition.DiffPlans(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if diff.DirtyShards != 0 {
		t.Fatalf("identical graph classified %d shards dirty", diff.DirtyShards)
	}
	// No workers at all: a zero-dirty refresh must not need the fleet.
	c := NewCoordinator(nil, Options{Logf: t.Logf})
	fleet, err := c.RefreshShards(context.Background(), next, prev, diff.Plan, diff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !fleet.Converged {
		t.Fatal("zero-dirty fleet result not vacuously converged")
	}
	got := assembleBytes(t, next, prev, diff, &fleet.ShardRun)
	const headerSize = 200
	if !bytes.Equal(got[headerSize:], prevBytes[headerSize:]) {
		t.Fatal("zero-dirty assembled payload differs from the previous snapshot")
	}
}

// TestAcceptIdempotent pins duplicate-completion resolution within one
// refresh's registry: the first completion of a shard wins, later ones
// are counted and dropped, and a response whose echo or CRCs do not
// match the lease is rejected as a worker fault.
func TestAcceptIdempotent(t *testing.T) {
	cfg := refreshCfg()
	_, prev := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), cfg)
	l, diff := dirtyLease(t, prev, refreshGraph(t, [4]int{9, 2, 3, 4}))
	resp, err := (&Worker{Workers: 3, Logf: t.Logf}).RefreshShard(l)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(nil, Options{Logf: t.Logf}).newRun(len(diff.Plan.Shards))
	first, err := c.accept(l, resp)
	if err != nil || !first {
		t.Fatalf("first accept = (%v, %v), want (true, nil)", first, err)
	}
	dup, err := c.accept(l, resp)
	if err != nil || dup {
		t.Fatalf("duplicate accept = (%v, %v), want (false, nil)", dup, err)
	}
	if c.out.Stats.DuplicateWins != 1 {
		t.Fatalf("DuplicateWins = %d, want 1", c.out.Stats.DuplicateWins)
	}

	wrongEcho := *resp
	wrongEcho.Shard++
	if _, err := c.accept(l, &wrongEcho); err == nil {
		t.Fatal("accept took a completion echoing the wrong shard")
	}
	badCRC := *resp
	badCRC.QueryCRC ^= 1
	if _, err := c.accept(l, &badCRC); err == nil {
		t.Fatal("accept took a completion whose segment fails its CRC")
	}
}
