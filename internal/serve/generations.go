package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
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
// and a whole-file hash — before atomically re-pointing the serving
// path at it. Because the serving file is only ever replaced by an
// atomic rename and the last Keep generations stay journaled, a torn
// write, a bad disk, or a refresh crashed at any instant leaves the
// previous generation intact and re-installable: `simrank -rollback`
// (or the refresh failure path itself) verifies manifests newest-first
// and re-points serving at the last good one. Temp files are journal
// debris by construction (unique *.tmp* names, never referenced by a
// manifest); SweepTemp clears them at the start of the next refresh.
//
// Layout, for a serving path P:
//
//	P                       the serving snapshot (what simrankd opens)
//	P.gens/gen-%08d.snap    generation N's snapshot bytes
//	P.gens/gen-%08d.mf      generation N's manifest (see below)
//	P.gens/journal-*.tmp    in-flight writes (crash debris until swept)
//
// Manifest format (a 56-byte internal/frame frame): magic "SRPPMANI",
// format version, generation id, source fingerprint (XOR of the
// snapshot's shard subgraph fingerprints — ties the generation to the
// click graph it was computed from), CRC32 of the complete snapshot
// file, snapshot size, creation time and the refresh's dirty-shard
// count. A generation is "good" only when its manifest opens, its
// snapshot file matches the recorded size and hash, and the snapshot
// header opens.
//
// Every journal write is durable before the next step depends on it: a
// temp file is fsynced before its rename and the directory after, so a
// power loss cannot leave a manifest naming bytes that never reached the
// disk, nor a serving path older than what a fold then acknowledged.
const (
	manifestMagic   = "SRPPMANI"
	manifestVersion = 1
	genSnapSuffix   = ".snap"
	genManifSuffix  = ".mf"
	journalPrefix   = "journal-"
)

// DefaultKeepGenerations is how many generations a refresh retains when
// the operator does not choose.
const DefaultKeepGenerations = 3

// errCrashInjected simulates the refresh process dying at a checkpoint:
// tests arm it via failAt, and the store then leaves every partial file
// exactly where a kill -9 would — no cleanup runs.
var errCrashInjected = errors.New("serve: injected crash")

// Generation describes one journaled snapshot generation.
type Generation struct {
	ID          uint64    `json:"id"`
	SnapPath    string    `json:"snap_path"`
	Fingerprint uint64    `json:"fingerprint"`
	CRC         uint32    `json:"crc32"`
	Size        int64     `json:"size"`
	CreatedAt   time.Time `json:"created_at"`
	// DirtyShards is the producing refresh's dirty-shard count; -1 for a
	// full build (or an adopted pre-store snapshot).
	DirtyShards int `json:"dirty_shards"`
}

// GenerationStore manages the journaled generations beside one serving
// snapshot path. It assumes a single writer (one refresh/rollback at a
// time — the paper's deployment has exactly one batch side); readers
// (simrankd's reload fallback) are safe concurrently because
// generations are immutable once their manifest exists.
type GenerationStore struct {
	path string // serving snapshot path
	dir  string // journal directory beside it
	keep int

	// failAt names a checkpoint at which the next operation aborts with
	// errCrashInjected and no cleanup — the crash-test hook emulating a
	// kill at that instant. Empty in production.
	failAt string
}

// NewGenerationStore returns the store for serving path p, retaining
// keep generations (DefaultKeepGenerations when keep <= 0).
func NewGenerationStore(p string, keep int) *GenerationStore {
	if keep <= 0 {
		keep = DefaultKeepGenerations
	}
	return &GenerationStore{path: p, dir: p + ".gens", keep: keep}
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
		CreatedAt: time.Unix(int64(d.U64()), 0).UTC()}
	dirty := d.U32()
	if err := d.Done(); err != nil {
		return Generation{}, fmt.Errorf("serve: manifest: %w", err)
	}
	if version != manifestVersion {
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

// SweepTemp removes journal debris: in-flight temp files a crashed
// refresh or rollback left behind, both in the journal directory and
// beside the serving path (the publish-link and snapshot-write temps).
// Call it before starting a refresh — a generation referenced by a
// manifest is never a temp file, so sweeping is always safe under the
// store's single-writer contract.
func (gs *GenerationStore) SweepTemp() (int, error) {
	removed := 0
	sweep := func(dir, prefix string) error {
		entries, err := os.ReadDir(dir)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, prefix) && strings.Contains(name, ".tmp") {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return err
				}
				removed++
			}
		}
		return nil
	}
	if err := sweep(gs.dir, journalPrefix); err != nil {
		return removed, err
	}
	// WriteSnapshotFileTopK/Publish temps beside the serving path use the
	// base name as prefix with a .tmp infix.
	if err := sweep(filepath.Dir(gs.path), filepath.Base(gs.path)+".tmp"); err != nil {
		return removed, err
	}
	return removed, nil
}

// fileCRC hashes a whole file.
func fileCRC(path string) (uint32, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return h.Sum32(), n, nil
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
	tmp, err := os.CreateTemp(gs.dir, journalPrefix+"*.tmp")
	if err != nil {
		return err
	}
	if err := gs.crash("manifest:mid-write"); err != nil {
		tmp.Close()
		return err // crash: temp file stays, manifest never exists
	}
	_, err = tmp.Write(encodeManifest(g))
	if err := closeSynced(tmp, err); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := gs.crash("manifest:pre-rename"); err != nil {
		return err // crash: fully-written temp stays unrenamed
	}
	if err := os.Rename(tmp.Name(), gs.manifName(g.ID)); err != nil {
		return err
	}
	return SyncDir(gs.dir)
}

// closeSynced fsyncs and closes f after writing it, unless writeErr
// already failed the write, and returns the first error.
func closeSynced(f *os.File, writeErr error) error {
	if writeErr == nil {
		writeErr = f.Sync()
	}
	if err := f.Close(); writeErr == nil {
		writeErr = err
	}
	return writeErr
}

// SyncDir fsyncs a directory, making the renames and links in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Adopt journals the currently-served snapshot as a generation if no
// good generation already matches its bytes, so the very first refresh
// under generation management has a rollback target: the pre-refresh
// state itself. Returns the matching or newly-created generation, or
// (nil, nil) when no serving file exists yet.
func (gs *GenerationStore) Adopt() (*Generation, error) {
	crc, size, err := fileCRC(gs.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	var maxID uint64
	for i := range gens {
		if gens[i].CRC == crc && gens[i].Size == size {
			return &gens[i], nil
		}
		if gens[i].ID > maxID {
			maxID = gens[i].ID
		}
	}
	fp, dirty, err := snapshotFingerprint(gs.path)
	if err != nil {
		return nil, fmt.Errorf("serve: current snapshot %s is not adoptable: %w", gs.path, err)
	}
	if err := os.MkdirAll(gs.dir, 0o755); err != nil {
		return nil, err
	}
	g := &Generation{
		ID:          maxID + 1,
		Fingerprint: fp,
		CRC:         crc,
		Size:        size,
		CreatedAt:   time.Now().UTC(),
		DirtyShards: dirty,
	}
	g.SnapPath = gs.snapName(g.ID)
	// Hardlink the serving file into the journal (same directory tree,
	// so same filesystem); fall back to a copy. Linking is safe because
	// the serving path is only ever replaced by rename, never written
	// in place — the journal link keeps the old inode alive.
	if err := linkOrCopy(gs.path, g.SnapPath, gs.dir); err != nil {
		return nil, err
	}
	if err := SyncDir(gs.dir); err != nil {
		return nil, err
	}
	if err := gs.writeManifest(g); err != nil {
		return nil, err
	}
	return g, nil
}

// linkOrCopy makes dst name src's bytes: hardlink when the filesystem
// allows, else a journaled copy (fsynced temp in tmpDir + rename). The
// caller syncs dst's directory.
func linkOrCopy(src, dst, tmpDir string) error {
	if err := os.Link(src, dst); err == nil || errors.Is(err, os.ErrExist) {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp, err := os.CreateTemp(tmpDir, journalPrefix+"*.tmp")
	if err != nil {
		return err
	}
	_, err = io.Copy(tmp, in)
	if err := closeSynced(tmp, err); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// Commit journals a new generation: write writes the snapshot bytes to
// a temp file in the journal directory, which is renamed to its final
// gen-N name and described by a manifest only after every byte landed.
// A crash at any instant leaves either nothing, an unreferenced temp
// (swept later), or a snapshot without a manifest (never trusted) —
// previous generations and the serving path are untouched.
func (gs *GenerationStore) Commit(dirtyShards int, fingerprint uint64, write func(io.Writer) error) (*Generation, error) {
	if err := os.MkdirAll(gs.dir, 0o755); err != nil {
		return nil, err
	}
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	var maxID uint64
	for i := range gens {
		if gens[i].ID > maxID {
			maxID = gens[i].ID
		}
	}
	tmp, err := os.CreateTemp(gs.dir, journalPrefix+"*.tmp")
	if err != nil {
		return nil, err
	}
	h := crc32.NewIEEE()
	cw := &crashableWriter{w: io.MultiWriter(tmp, h), gs: gs}
	if err := write(cw); err != nil {
		tmp.Close()
		if !errors.Is(err, errCrashInjected) {
			os.Remove(tmp.Name()) // a crash leaves debris; a plain error cleans up
		}
		return nil, err
	}
	if err := closeSynced(tmp, nil); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := gs.crash("commit:pre-rename"); err != nil {
		return nil, err
	}
	st, err := os.Stat(tmp.Name())
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	g := &Generation{
		ID:          maxID + 1,
		Fingerprint: fingerprint,
		CRC:         h.Sum32(),
		Size:        st.Size(),
		CreatedAt:   time.Now().UTC(),
		DirtyShards: dirtyShards,
	}
	g.SnapPath = gs.snapName(g.ID)
	if err := os.Rename(tmp.Name(), g.SnapPath); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := SyncDir(gs.dir); err != nil {
		return nil, err
	}
	if err := gs.crash("commit:post-snap"); err != nil {
		return nil, err // crash: snapshot exists, manifest doesn't — never trusted
	}
	if err := gs.writeManifest(g); err != nil {
		return nil, err
	}
	return g, nil
}

// crashableWriter aborts mid-stream at the "commit:mid-write"
// checkpoint after letting some bytes through — the torn-write crash.
type crashableWriter struct {
	w  io.Writer
	gs *GenerationStore
	n  int64
}

func (cw *crashableWriter) Write(p []byte) (int, error) {
	if cw.n > 0 { // let the first write land, tear the second
		if err := cw.gs.crash("commit:mid-write"); err != nil {
			half := len(p) / 2
			cw.w.Write(p[:half])
			return half, err
		}
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Publish atomically re-points the serving path at generation g: a
// hardlink (or copy) of the journaled snapshot is renamed over the
// serving path, so a reader — or a crash — never observes a partial
// file. The journal entry itself is never consumed: rollback targets
// survive publication.
func (gs *GenerationStore) Publish(g *Generation) error {
	dir := filepath.Dir(gs.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(gs.path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	tmp.Close()
	os.Remove(tmpName) // we need the unique name, not the empty file
	if err := linkOrCopy(g.SnapPath, tmpName, dir); err != nil {
		return err
	}
	if err := gs.crash("publish:pre-rename"); err != nil {
		return err // crash: link debris beside the serving path, old file intact
	}
	if err := os.Rename(tmpName, gs.path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// verify re-checks a generation end to end: manifest already checksummed
// by List, so this validates the snapshot bytes against it (size, whole-
// file hash) and opens the header. It is what "last good" means.
func (gs *GenerationStore) verify(g *Generation) error {
	crc, size, err := fileCRC(g.SnapPath)
	if err != nil {
		return err
	}
	if size != g.Size || crc != g.CRC {
		return fmt.Errorf("serve: generation %d snapshot does not match its manifest (size %d vs %d, crc %08x vs %08x)",
			g.ID, size, g.Size, crc, g.CRC)
	}
	snap, err := OpenSnapshot(g.SnapPath)
	if err != nil {
		return err
	}
	return snap.Close()
}

// LastGood returns the newest generation that verifies end to end.
func (gs *GenerationStore) LastGood() (*Generation, error) {
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		if gs.verify(&gens[i]) == nil {
			return &gens[i], nil
		}
	}
	return nil, fmt.Errorf("serve: no good generation in %s", gs.dir)
}

// current identifies which journaled generation the serving path
// currently holds, by whole-file hash.
func (gs *GenerationStore) current() (*Generation, bool) {
	crc, size, err := fileCRC(gs.path)
	if err != nil {
		return nil, false
	}
	gens, err := gs.List()
	if err != nil {
		return nil, false
	}
	for i := len(gens) - 1; i >= 0; i-- {
		if gens[i].CRC == crc && gens[i].Size == size {
			return &gens[i], true
		}
	}
	return nil, false
}

// Rollback re-points the serving path at the last good generation
// before the one currently served: the operator's "this generation is
// bad, give me the previous one". When the serving file is corrupt or
// missing (matches no journaled generation), it restores the newest
// good generation instead. Returns the generation now serving.
func (gs *GenerationStore) Rollback() (*Generation, error) {
	cur, curKnown := gs.current()
	gens, err := gs.List()
	if err != nil {
		return nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		if curKnown && gens[i].ID >= cur.ID {
			continue
		}
		if gs.verify(&gens[i]) != nil {
			continue
		}
		if err := gs.Publish(&gens[i]); err != nil {
			return nil, err
		}
		return &gens[i], nil
	}
	if curKnown {
		return nil, fmt.Errorf("serve: no good generation older than the current one (%d) to roll back to", cur.ID)
	}
	return nil, fmt.Errorf("serve: no good generation in %s to roll back to", gs.dir)
}

// RestoreServing is the refresh-failure safety net: when the serving
// path no longer opens as a snapshot (torn write, bad disk), it
// re-points it at the last good generation. Returns the generation
// restored, or (nil, nil) when the serving path was healthy.
func (gs *GenerationStore) RestoreServing() (*Generation, error) {
	if snap, err := OpenSnapshot(gs.path); err == nil {
		snap.Close()
		return nil, nil
	}
	g, err := gs.LastGood()
	if err != nil {
		return nil, err
	}
	if err := gs.Publish(g); err != nil {
		return nil, err
	}
	return g, nil
}

// Prune deletes the snapshot and manifest of every listed generation but
// the newest keep by id, returning how many it removed. It verifies
// nothing: a damaged generation counts toward keep like any other, and
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
