package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"simrankpp/internal/frame"
)

// Generation management: the fault-tolerance layer under `simrank
// -refresh`. Every refresh journals its output as a numbered generation
// beside the serving snapshot — the snapshot bytes plus a small CRC'd
// manifest recording the generation id, the source-graph fingerprint,
// and the snapshot's size and header CRC — before atomically re-pointing
// the serving path at it. Because the serving file is only ever replaced
// by an atomic rename and the last three generations stay journaled, a torn
// write, a bad disk, or a refresh crashed at any instant leaves the
// previous generation intact and re-installable: `simrank -rollback`
// (or the next refresh, when the serving file no longer opens) verifies
// manifests newest-first and re-points serving at the last good one.
// Temp files and generation snapshots without a manifest are journal
// debris by construction (nothing ever trusts them); Lock clears them
// before the next writer starts.
//
// Layout, for a serving path P:
//
//	P                       the serving snapshot (what simrankd opens)
//	P.gens/gen-%08d.snap    generation N's snapshot bytes
//	P.gens/gen-%08d.mf      generation N's manifest (see below)
//	P.gens/*.tmp<digits>    in-flight writes (crash debris until swept)
//
// Manifest format (a 56-byte internal/frame frame): magic "SRPPMANI",
// format version, generation id, source fingerprint (XOR of the
// snapshot's shard subgraph fingerprints — ties the generation to the
// click graph it was computed from), the sealed CRC of the snapshot's
// header, snapshot size, creation time and the refresh's dirty-shard
// count. The header CRC is the root of the snapshot's CRC tree: it
// covers the string, route and directory CRCs, and through the directory
// every segment and top-k blob CRC, so with the size it names the file.
// A generation is "good" only when its manifest opens, its snapshot file
// has the recorded size and header CRC, and the snapshot opens and
// verifies end to end (PreloadAll). Version 1 manifests recorded a
// whole-file CRC32 in that field; they still decode, so Prune retires
// them, but never verify.
//
// Every journal write lands (LandFile) before the next step depends on
// it, so a power loss cannot leave a manifest naming bytes that never
// reached the disk, nor a serving path older than a fold acknowledged.
const (
	manifestMagic   = "SRPPMANI"
	manifestVersion = 2
	genSnapSuffix   = ".snap"
	genManifSuffix  = ".mf"
	// keepGenerations is how many generations Prune retains.
	keepGenerations = 3
)

// errCrashInjected simulates the refresh process dying at a checkpoint:
// tests arm it via failAt, and the store then leaves every partial file
// exactly where a kill -9 would — no cleanup runs.
var errCrashInjected = errors.New("serve: injected crash")

// Generation describes one journaled snapshot generation.
type Generation struct {
	ID          uint64 `json:"id"`
	SnapPath    string `json:"snap_path"`
	Fingerprint uint64 `json:"fingerprint"`
	// CRC is the snapshot's sealed header CRC (file bytes [196,200)); a
	// version 1 manifest holds a whole-file CRC32 here.
	CRC       uint32    `json:"crc32"`
	Size      int64     `json:"size"`
	CreatedAt time.Time `json:"created_at"`
	// DirtyShards is the producing refresh's dirty-shard count; -1 for a
	// full build (or an adopted pre-store snapshot).
	DirtyShards int `json:"dirty_shards"`
	// v1 marks a version 1 manifest, whose CRC is a whole-file CRC32.
	v1 bool
}

// GenerationStore manages the journaled generations beside one serving
// snapshot path. It assumes a single writer (one refresh/rollback at a
// time — the paper's deployment has exactly one batch side); readers
// (simrankd's reload fallback) are safe concurrently because
// generations are immutable once their manifest exists.
type GenerationStore struct {
	path string // serving snapshot path
	dir  string // journal directory beside it
	keep int    // generations Prune retains; tests lower it

	// open opens the serving snapshot for a refresh (OpenSnapshot; the
	// chaos tests wrap its reads in fault injectors).
	open func(path string) (*Snapshot, error)
	// failAt names a checkpoint at which the next operation aborts with
	// errCrashInjected and no cleanup — the crash-test hook emulating a
	// kill at that instant. Empty in production.
	failAt string
}

// NewGenerationStore returns the store for serving path p.
func NewGenerationStore(p string) *GenerationStore {
	return &GenerationStore{path: p, dir: p + ".gens", keep: keepGenerations, open: OpenSnapshot}
}

// crash aborts the calling operation when the test hook armed this
// checkpoint. Callers must not clean up after it — the point is to
// leave the disk exactly as a kill would.
func (gs *GenerationStore) crash(stage string) error {
	if gs.failAt == stage {
		return fmt.Errorf("%w at %s", errCrashInjected, stage)
	}
	return nil
}

func (gs *GenerationStore) snapName(id uint64) string {
	return filepath.Join(gs.dir, fmt.Sprintf("gen-%08d%s", id, genSnapSuffix))
}

func (gs *GenerationStore) manifName(id uint64) string {
	return filepath.Join(gs.dir, fmt.Sprintf("gen-%08d%s", id, genManifSuffix))
}

func encodeManifest(g *Generation) []byte {
	dirty := fullBuildSentinel
	if g.DirtyShards >= 0 {
		dirty = uint32(g.DirtyShards)
	}
	e := frame.Append(nil, manifestMagic)
	e.U32(manifestVersion)
	e.U64(g.ID)
	e.U64(g.Fingerprint)
	e.U32(g.CRC)
	e.U64(uint64(g.Size))
	e.U64(uint64(g.CreatedAt.Unix()))
	e.U32(dirty)
	return e.Seal()
}

func decodeManifest(buf []byte) (Generation, error) {
	d, err := frame.Open(buf, manifestMagic)
	if err != nil {
		return Generation{}, fmt.Errorf("serve: manifest: %w", err)
	}
	version := d.U32()
	g := Generation{ID: d.U64(), Fingerprint: d.U64(), CRC: d.U32(), Size: int64(d.U64()),
		CreatedAt: time.Unix(int64(d.U64()), 0).UTC(), v1: version == 1}
	dirty := d.U32()
	if err := d.Done(); err != nil {
		return Generation{}, fmt.Errorf("serve: manifest: %w", err)
	}
	if version != 1 && version != manifestVersion {
		return Generation{}, fmt.Errorf("serve: unsupported manifest version %d (want %d)", version, manifestVersion)
	}
	g.DirtyShards = int(dirty)
	if dirty == fullBuildSentinel {
		g.DirtyShards = -1
	}
	return g, nil
}

// List returns every generation with a readable, checksummed manifest,
// ascending by id. Corrupt or half-written manifests are skipped, not
// errors — a crashed refresh must not wedge the next one.
func (gs *GenerationStore) List() ([]Generation, error) {
	entries, err := os.ReadDir(gs.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Generation
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, genManifSuffix) {
			continue
		}
		idStr := strings.TrimSuffix(strings.TrimPrefix(name, "gen-"), genManifSuffix)
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(gs.dir, name))
		if err != nil {
			continue
		}
		g, err := decodeManifest(buf)
		if err != nil || g.ID != id {
			continue
		}
		g.SnapPath = gs.snapName(g.ID)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// sweepDebris removes what a crashed refresh or rollback left behind:
// landing temps in the journal directory (and the journal-*.tmp ones of
// releases before the one name rule) and beside the serving path (the
// publish-link and snapshot-write temps), and generation snapshots whose
// manifest never landed — List never trusts those, so Prune would never
// remove them. Only the lock holder may call it (Lock does): under the
// single-writer contract nothing it removes is still being written.
func (gs *GenerationStore) sweepDebris() (int, error) {
	temps, err := SweepTemps(gs.dir, func(string) bool { return true })
	if err != nil {
		return temps, err
	}
	orphans, err := sweepDir(gs.dir, func(name string) bool {
		if strings.HasPrefix(name, "gen-") && strings.HasSuffix(name, genSnapSuffix) {
			_, err := os.Stat(filepath.Join(gs.dir, strings.TrimSuffix(name, genSnapSuffix)+genManifSuffix))
			return errors.Is(err, os.ErrNotExist)
		}
		return strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, tempInfix)
	})
	if err != nil {
		return temps + orphans, err
	}
	base := filepath.Base(gs.path)
	serving, err := SweepTemps(filepath.Dir(gs.path), func(target string) bool { return target == base })
	return temps + orphans + serving, err
}

// snapshotIdentity reads a snapshot file's identity from its 200-byte
// header frame alone: the header's sealed CRC, the root of the file's CRC
// tree, and the file's size.
func snapshotIdentity(path string) (crc uint32, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, 0, fmt.Errorf("serve: reading snapshot header: %w", err)
	}
	if _, err := frame.Open(hdr, snapshotMagic); err != nil {
		return 0, 0, fmt.Errorf("serve: snapshot header: %w", err)
	}
	return binary.LittleEndian.Uint32(hdr[headerSize-4:]), st.Size(), nil
}

// verifySnapshot opens the snapshot at path and checks every score
// segment and top-k blob against its directory CRC.
func verifySnapshot(path string) error {
	snap, err := OpenSnapshot(path)
	if err != nil {
		return err
	}
	defer snap.Close()
	return snap.PreloadAll()
}

// snapshotFingerprint opens a snapshot header and returns its
// generation fingerprint (XOR of shard fingerprints) plus the recorded
// dirty-shard count.
func snapshotFingerprint(path string) (fp uint64, dirty int, err error) {
	snap, err := OpenSnapshot(path)
	if err != nil {
		return 0, 0, err
	}
	defer snap.Close()
	for i := 0; i < snap.NumShards(); i++ {
		fp ^= snap.ShardFingerprint(i)
	}
	return fp, snap.Meta().LastRefreshDirty, nil
}

// writeManifest journals then installs a generation's manifest.
func (gs *GenerationStore) writeManifest(g *Generation) error {
	return LandFile(gs.manifName(g.ID), func(w *TempFile) error {
		_, err := w.Write(encodeManifest(g))
		return err
	}, func(stage string) error { return gs.crash("manifest:" + stage) })
}

// Adopt journals the currently-served snapshot as a generation if no
// generation already records its identity (size and header CRC, read
// from its header alone), so the very first refresh under generation
// management has a rollback target: the pre-refresh state itself.
// Returns the matching or newly-created generation, or (nil, nil) when no
// serving file exists yet.
func (gs *GenerationStore) Adopt() (*Generation, error) {
	crc, size, err := snapshotIdentity(gs.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: current snapshot %s is not adoptable: %w", gs.path, err)
	}
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	if g := holding(gens, crc, size); g != nil {
		return g, nil
	}
	fp, dirty, err := snapshotFingerprint(gs.path)
	if err != nil {
		return nil, fmt.Errorf("serve: current snapshot %s is not adoptable: %w", gs.path, err)
	}
	// Link the serving file into the journal (same directory tree, so
	// same filesystem): the journal link keeps the old inode alive.
	g := &Generation{Fingerprint: fp, CRC: crc, Size: size, DirtyShards: dirty}
	return gs.install(gens, g, func(path string) error {
		return landLink(gs.path, path, nil)
	})
}

// holding returns the newest of gens whose version 2 manifest records a
// file of the given header CRC and size, or nil.
func holding(gens []Generation, crc uint32, size int64) *Generation {
	for i := len(gens) - 1; i >= 0; i-- {
		if !gens[i].v1 && gens[i].CRC == crc && gens[i].Size == size {
			return &gens[i]
		}
	}
	return nil
}

// Commit journals a new generation: write fills a temp file in the
// journal directory in place; the file lands at its gen-N name
// (LandFile), then a manifest records its size and header CRC.
// checkpoint, when non-nil, is called at "commit:mid-write", once the
// first bytes are in the temp, and its error is a crash there. A crash at any instant leaves either
// nothing, an unreferenced temp (swept later), or a snapshot without a
// manifest (never trusted) — previous generations and the serving path
// are untouched.
func (gs *GenerationStore) Commit(dirtyShards int, fingerprint uint64, write func(io.WriterAt) error, checkpoint func(stage string) error) (*Generation, error) {
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	g := &Generation{Fingerprint: fingerprint, DirtyShards: dirtyShards}
	return gs.install(gens, g, func(path string) error {
		err := LandFile(path, func(w *TempFile) error {
			return write(w)
		}, func(stage string) error {
			if err := gs.crash("commit:" + stage); err != nil || stage != "mid-write" || checkpoint == nil {
				return err
			}
			return checkpoint("commit:mid-write")
		})
		if err != nil {
			return err
		}
		g.CRC, g.Size, err = snapshotIdentity(path)
		return err
	})
}

// install journals g as the generation after every listed one: land puts
// its snapshot bytes at their gen-N name (replacing whatever a crash left
// there), then g's manifest describes them.
func (gs *GenerationStore) install(gens []Generation, g *Generation, land func(path string) error) (*Generation, error) {
	if err := os.MkdirAll(gs.dir, 0o755); err != nil {
		return nil, err
	}
	for i := range gens {
		g.ID = max(g.ID, gens[i].ID)
	}
	g.ID++
	g.SnapPath = gs.snapName(g.ID)
	if err := land(g.SnapPath); err != nil {
		return nil, err
	}
	g.CreatedAt = time.Now().UTC()
	if err := gs.crash("commit:post-snap"); err != nil {
		return nil, err // crash: snapshot exists, manifest doesn't — never trusted
	}
	if err := gs.writeManifest(g); err != nil {
		return nil, err
	}
	return g, nil
}

// Publish atomically re-points the serving path at generation g: a
// hardlink (or copy) of the journaled snapshot lands over the serving
// path, so a reader — or a crash — never observes a partial file. The
// journal entry itself is never consumed: rollback targets survive
// publication.
func (gs *GenerationStore) Publish(g *Generation) error {
	return landLink(g.SnapPath, gs.path, func(stage string) error { return gs.crash("publish:" + stage) })
}

// verify re-checks a generation end to end: manifest already checksummed
// by List, so this checks the snapshot's size and header CRC against it,
// then every segment and top-k blob against the directory CRCs the header
// seals. It is what "last good" means. A version 1 manifest never
// verifies: its CRC field is a whole-file CRC32.
func (gs *GenerationStore) verify(g *Generation) error {
	if g.v1 {
		return fmt.Errorf("serve: generation %d has a version 1 manifest (a whole-file CRC), which does not verify", g.ID)
	}
	crc, size, err := snapshotIdentity(g.SnapPath)
	if err != nil {
		return err
	}
	if size != g.Size || crc != g.CRC {
		return fmt.Errorf("serve: generation %d snapshot does not match its manifest (size %d vs %d, header crc %08x vs %08x)",
			g.ID, size, g.Size, crc, g.CRC)
	}
	return verifySnapshot(g.SnapPath)
}

// LastGood returns the newest generation that verifies end to end.
func (gs *GenerationStore) LastGood() (*Generation, error) {
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	if g := gs.newestGood(gens, nil); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("serve: no good generation in %s", gs.dir)
}

// newestGood returns the newest of gens older than before (any, when
// before is nil) that verifies end to end, or nil.
func (gs *GenerationStore) newestGood(gens []Generation, before *Generation) *Generation {
	for i := len(gens) - 1; i >= 0; i-- {
		if (before == nil || gens[i].ID < before.ID) && gs.verify(&gens[i]) == nil {
			return &gens[i]
		}
	}
	return nil
}

// Rollback re-points the serving path at the last good generation
// before the one currently served, identified by size and header CRC:
// the operator's "this generation is bad, give me the previous one".
// When the serving file is missing, matches no journaled generation or
// does not verify end to end, it restores the newest good generation
// instead. Returns the generation now serving.
func (gs *GenerationStore) Rollback() (*Generation, error) {
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	var cur *Generation
	if crc, size, err := snapshotIdentity(gs.path); err == nil {
		if cur = holding(gens, crc, size); cur != nil && verifySnapshot(gs.path) != nil {
			cur = nil
		}
	}
	g := gs.newestGood(gens, cur)
	if g == nil && cur != nil {
		return nil, fmt.Errorf("serve: no good generation older than the current one (%d) to roll back to", cur.ID)
	}
	if g == nil {
		return nil, fmt.Errorf("serve: no good generation in %s to roll back to", gs.dir)
	}
	if err := gs.Publish(g); err != nil {
		return nil, err
	}
	return g, nil
}

// openServing opens the serving snapshot for a refresh. A serving file
// that no longer opens (bad disk, a damaged copy renamed over it) is
// re-pointed at the last good generation and opened again, so one
// damaged file does not fail every refresh from then on; restored is
// that generation (nil when the file opened), set even when the reopen
// fails.
func (gs *GenerationStore) openServing() (prev *Snapshot, restored *Generation, err error) {
	prev, err = gs.open(gs.path)
	if err == nil {
		return prev, nil, nil
	}
	// Restore only a file that really does not open, not one whose read
	// failed once.
	if snap, oerr := OpenSnapshot(gs.path); oerr == nil {
		snap.Close()
		return nil, nil, fmt.Errorf("opening serving snapshot: %w", err)
	}
	restored, rerr := gs.LastGood()
	if rerr == nil {
		rerr = gs.Publish(restored)
	}
	if rerr != nil {
		return nil, nil, fmt.Errorf("opening serving snapshot: %w (restoring it: %v)", err, rerr)
	}
	if prev, err = gs.open(gs.path); err != nil {
		return nil, restored, fmt.Errorf("opening restored serving snapshot: %w", err)
	}
	return prev, restored, nil
}

// Prune deletes the snapshot and manifest of every listed generation but
// the newest three by id, returning how many it removed. It verifies
// nothing: a damaged generation counts among them like any other, and
// one whose manifest does not decode is not listed, so never removed.
func (gs *GenerationStore) Prune() (int, error) {
	gens, err := gs.List()
	if err != nil {
		return 0, err
	}
	if len(gens) <= gs.keep {
		return 0, nil
	}
	removed := 0
	for i := 0; i < len(gens)-gs.keep; i++ {
		if err := os.Remove(gs.manifName(gens[i].ID)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, err
		}
		if err := os.Remove(gens[i].SnapPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
