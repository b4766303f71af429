package datalaws

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"datalaws/internal/table"
)

// ErrObstructed reports that committing a snapshot failed because something
// occupies a path the commit needs — a stray file where the snapshot
// directory must land, or a directory squatting on the CURRENT pointer. The
// previous snapshot is untouched and still loadable.
var ErrObstructed = errors.New("datalaws: snapshot commit obstructed")

// On-disk layout. A save directory holds immutable snapshot directories
// (snap-NNNNNNNN) plus a CURRENT pointer file naming the live one; LoadDir
// follows CURRENT. Committing a snapshot is two atomic renames: the staged
// directory into place, then a staged pointer file over CURRENT. A crash
// between them leaves CURRENT on the previous snapshot — there is no window
// where a reader can observe a half-written mix of old and new files, which
// matters once WAL replay starts from a segment recorded inside the
// snapshot. The flat layout of builds before snapshots (.dltab files with
// no CURRENT) is refused by name.
const (
	currentFile = "CURRENT"
	snapPrefix  = "snap-"
)

func snapDirName(id int) string { return fmt.Sprintf("%s%08d", snapPrefix, id) }

func parseSnapName(name string) (int, bool) {
	if !strings.HasPrefix(name, snapPrefix) || len(name) != len(snapPrefix)+8 {
		return 0, false
	}
	var id int
	if _, err := fmt.Sscanf(name[len(snapPrefix):], "%08d", &id); err != nil {
		return 0, false
	}
	return id, true
}

// checkpointMeta is checkpoint.json inside a snapshot: the first WAL segment
// whose records are NOT contained in the snapshot, i.e. where replay starts.
type checkpointMeta struct {
	FormatVersion   int `json:"format_version"`
	WALStartSegment int `json:"wal_start_segment"`
}

// partitionsManifest is the on-disk record of partitioned-table structure
// (partitions.json): the declaration of every partitioned table, less its
// columns. Partition children persist as ordinary .dltab files named
// "<table>#<partition>.dltab" holding the schema, and the manifest is what
// reassembles them into PartitionedTables on load.
type partitionsManifest struct {
	FormatVersion int          `json:"format_version"`
	Tables        []table.Decl `json:"tables"`
}

// catalogMeta is catalog.json inside a snapshot: the table-catalog epoch at
// save time. Load uses it as a floor so a reopened engine's catalog epochs
// are strictly greater than any pre-restart value — the same restart
// aliasing guard the model store gets from persisting its own epoch (plan
// caches key on both raw epochs, see plancache.go).
type catalogMeta struct {
	FormatVersion int    `json:"format_version"`
	Epoch         uint64 `json:"epoch"`
}

// SaveDir persists the engine to a directory: every table as a binary
// column file (<name>.dltab, inheriting the lightweight column encodings),
// the partition manifest, and the captured model catalog as models.json
// with formulas in source form. The directory is created if needed.
//
// The save is crash-safe and atomic: everything is written into a staging
// directory, fsynced, renamed in one step to the next snap-NNNNNNNN
// directory, and published by swapping the CURRENT pointer file via a
// staged rename. A crash or error at any point leaves CURRENT on the
// previous snapshot, so a reload never observes a mix of old and new files.
// Obsolete snapshots are pruned after the pointer swap.
//
// When a WAL is attached and dir is the engine's durable directory, SaveDir
// is a checkpoint: the log rotates to a fresh segment first, the snapshot
// records that segment in checkpoint.json, and once the snapshot is live
// the pre-checkpoint segments are reclaimed. Recovery = snapshot + replay
// of segments from checkpoint.json onward.
//
// Partitioned tables persist as their children's .dltab files (named
// "<table>#<partition>.dltab") plus an entry in the partitions.json
// manifest; LoadDir reassembles them.
func (e *Engine) SaveDir(dir string) error {
	// Mutations hold walMu shared across their log-then-apply window; taking
	// it exclusively quiesces them, so the snapshot and the WAL rotation in
	// checkpointBegin observe the same state.
	e.walMu.Lock()
	defer e.walMu.Unlock()
	return e.saveSnapshot(dir)
}

// saveSnapshot is SaveDir's body; walStartSeg < 0 means no checkpoint
// metadata is recorded.
func (e *Engine) saveSnapshot(dir string) error {
	walStartSeg, reclaim, err := e.checkpointBegin(dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stage, err := os.MkdirTemp(dir, ".dlsave-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stage)

	for _, name := range e.Catalog.Names() {
		t, ok := e.Catalog.Get(name)
		if !ok {
			continue
		}
		fn := name + ".dltab"
		if err := writeFileSynced(filepath.Join(stage, fn), func(f *os.File) error {
			return table.WriteBinary(t, f)
		}); err != nil {
			return fmt.Errorf("datalaws: saving table %q: %w", name, err)
		}
	}
	if err := writeFileSynced(filepath.Join(stage, "partitions.json"), func(f *os.File) error {
		return writePartitionsManifest(e.Catalog, f)
	}); err != nil {
		return fmt.Errorf("datalaws: saving partition manifest: %w", err)
	}
	if err := writeFileSynced(filepath.Join(stage, "models.json"), func(f *os.File) error {
		return e.Models.Save(f)
	}); err != nil {
		return fmt.Errorf("datalaws: saving models: %w", err)
	}
	if err := writeFileSynced(filepath.Join(stage, "catalog.json"), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(catalogMeta{FormatVersion: 1, Epoch: e.Catalog.Epoch()})
	}); err != nil {
		return fmt.Errorf("datalaws: saving catalog metadata: %w", err)
	}
	if walStartSeg >= 0 {
		if err := writeFileSynced(filepath.Join(stage, "checkpoint.json"), func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(checkpointMeta{FormatVersion: 1, WALStartSegment: walStartSeg})
		}); err != nil {
			return fmt.Errorf("datalaws: saving checkpoint metadata: %w", err)
		}
	}
	if err := syncDir(stage); err != nil {
		return err
	}

	// Commit leg 1: the staged directory becomes the next immutable snapshot
	// in a single rename.
	id, err := nextSnapID(dir)
	if err != nil {
		return err
	}
	snap := filepath.Join(dir, snapDirName(id))
	if err := os.Rename(stage, snap); err != nil {
		return fmt.Errorf("%w: renaming staged snapshot to %s: %v", ErrObstructed, snapDirName(id), err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}

	// Commit leg 2: publish it by swapping the CURRENT pointer, itself via a
	// staged rename so the pointer is never half-written.
	if err := setCurrent(dir, snapDirName(id)); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}

	// The snapshot is live: pre-checkpoint WAL segments and older snapshots
	// are dead weight now. Both prunes are best-effort.
	if reclaim != nil {
		reclaim()
	}
	pruneSnapshots(dir, snapDirName(id))
	return nil
}

// nextSnapID picks the successor of the highest existing snapshot
// directory. Non-directory entries with snapshot names do not advance the
// counter: a stray file squatting on the next name obstructs the commit
// (surfaced as ErrObstructed) rather than being silently skipped.
func nextSnapID(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	next := 1
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if id, ok := parseSnapName(ent.Name()); ok && id >= next {
			next = id + 1
		}
	}
	return next, nil
}

// setCurrent atomically repoints CURRENT at snap via a staged rename.
func setCurrent(dir, snap string) error {
	tmp := filepath.Join(dir, currentFile+".tmp")
	if err := writeFileSynced(tmp, func(f *os.File) error {
		_, err := f.WriteString(snap + "\n")
		return err
	}); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		_ = os.Remove(tmp) // best-effort cleanup of the orphaned temp file
		return fmt.Errorf("%w: publishing %s pointer: %v", ErrObstructed, currentFile, err)
	}
	return nil
}

// readCurrent resolves the live snapshot directory, or ok=false if the
// directory has no CURRENT file.
func readCurrent(dir string) (string, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, currentFile))
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, err
	}
	name := strings.TrimSpace(string(b))
	if _, ok := parseSnapName(name); !ok {
		return "", false, fmt.Errorf("datalaws: %s names %q, not a snapshot directory", currentFile, name)
	}
	snap := filepath.Join(dir, name)
	if st, err := os.Stat(snap); err != nil || !st.IsDir() {
		return "", false, fmt.Errorf("datalaws: %s points at missing snapshot %s", currentFile, name)
	}
	return snap, true, nil
}

// pruneSnapshots removes snapshot directories other than keep, plus any
// abandoned staging directories. Best-effort: a failure here never fails the
// save, the stale entries are just garbage a later save retries.
func pruneSnapshots(dir, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if !ent.IsDir() || ent.Name() == keep {
			continue
		}
		_, isSnap := parseSnapName(ent.Name())
		if isSnap || strings.HasPrefix(ent.Name(), ".dlsave-") {
			os.RemoveAll(filepath.Join(dir, ent.Name()))
		}
	}
}

// writeFileSynced creates path, runs write against it, and fsyncs before
// closing, so a rename that follows publishes fully durable content.
func writeFileSynced(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // error path: the write failure aborts the publish
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // error path: the fsync failure aborts the publish
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so preceding renames and creates in it are
// durable. Some filesystems reject directory fsync with EINVAL, which is
// harmlessly advisory — but any other error is a real durability problem in
// the commit path and is logged rather than swallowed. It is still not
// fatal: the renames themselves are atomic, so the worst case is the commit
// reverting wholesale on a crash, never a torn state.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		log.Printf("datalaws: fsync dir %s: %v (commit is atomic but may not be durable)", dir, err)
	}
	return nil
}

// writePartitionsManifest records every partitioned table's structure. It
// is written on every save (an empty manifest is meaningful: it says no
// table is partitioned) so a reload never resurrects structure dropped
// since the previous save.
func writePartitionsManifest(cat *table.Catalog, f *os.File) error {
	man := partitionsManifest{FormatVersion: 1}
	for _, name := range cat.PartitionedNames() {
		if d, ok := cat.DeclOf(name); ok {
			man.Tables = append(man.Tables, d)
		}
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(man)
}

// LoadDir restores an engine persisted with SaveDir into this engine.
// Loaded names must not collide with existing tables or models. It follows
// the CURRENT pointer to the live snapshot. A directory with no CURRENT
// loads nothing, unless it holds .dltab files: that is the flat layout of
// builds before snapshots, which is refused rather than mistaken for an
// empty engine.
//
// The load is staged: every table file is read and decoded, the partition
// manifest resolved against the decoded tables, and the model catalog
// parsed, before anything is committed to the engine. An error at any point
// — an unreadable file, a corrupt table, a malformed manifest, a name
// collision — leaves the engine exactly as it was; a partial catalog is
// never observable.
func (e *Engine) LoadDir(dir string) error {
	snap, ok, err := readCurrent(dir)
	if err != nil {
		return err
	}
	if ok {
		return e.loadSnapshot(snap)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if isTableFile(ent) {
			return fmt.Errorf("datalaws: %s holds %s but no %s: a flat save from before snapshots is no longer read", dir, ent.Name(), currentFile)
		}
	}
	return nil
}

func isTableFile(ent os.DirEntry) bool {
	return !ent.IsDir() && strings.HasSuffix(ent.Name(), ".dltab") && !strings.HasPrefix(ent.Name(), ".")
}

// loadSnapshot loads one snapshot directory: .dltab files, partitions.json,
// models.json and catalog.json.
func (e *Engine) loadSnapshot(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}

	// Stage: decode everything before touching the engine.
	var tables []*table.Table
	for _, ent := range entries {
		if !isTableFile(ent) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		t, err := table.ReadBinary(b)
		if err != nil {
			return fmt.Errorf("datalaws: loading %s: %w", ent.Name(), err)
		}
		tables = append(tables, t)
	}
	parted, children, err := stagePartitioned(dir, tables)
	if err != nil {
		return err
	}
	var models *os.File
	if mf, err := os.Open(filepath.Join(dir, "models.json")); err == nil {
		models = mf
		defer models.Close()
	} else if !os.IsNotExist(err) {
		return err
	}
	var catEpoch uint64
	if b, err := os.ReadFile(filepath.Join(dir, "catalog.json")); err == nil {
		var meta catalogMeta
		if err := json.Unmarshal(b, &meta); err != nil {
			return fmt.Errorf("datalaws: parsing catalog.json: %w", err)
		}
		catEpoch = meta.Epoch
	} else if !os.IsNotExist(err) {
		return err
	}

	// Commit tables, rolling back the ones added here on any failure.
	// Partition children commit through their parent, not individually.
	var added []string
	rollback := func() {
		for _, name := range added {
			e.Catalog.Drop(name)
		}
	}
	for _, t := range tables {
		if children[t.Name] {
			continue
		}
		if err := e.Catalog.Add(t); err != nil {
			rollback()
			return err
		}
		added = append(added, t.Name)
	}
	for _, pt := range parted {
		if err := e.Catalog.AddPartitioned(pt); err != nil {
			rollback()
			return err
		}
		added = append(added, pt.Name)
	}
	// Commit models last. Store.Load is itself all-or-nothing (it decodes,
	// rebuilds and collision-checks everything before mutating the store),
	// so on any failure — corrupt JSON, bad formula, duplicate name — only
	// the tables need unwinding.
	if models != nil {
		if err := e.Models.Load(models); err != nil {
			rollback()
			return err
		}
	}
	// The load replayed as a handful of Add calls; jump the catalog epoch
	// past the persisted high water mark so no post-restart epoch can alias
	// a pre-restart plan-cache key. (Store.Load does the same internally.)
	e.Catalog.AdvanceEpoch(catEpoch)
	return nil
}

// readCheckpointSeg reads the WAL start segment recorded in the live
// snapshot's checkpoint.json; ok=false if the directory has no snapshot or
// the snapshot predates the WAL.
func readCheckpointSeg(dir string) (int, bool, error) {
	snap, ok, err := readCurrent(dir)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	b, err := os.ReadFile(filepath.Join(snap, "checkpoint.json"))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	var meta checkpointMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		return 0, false, fmt.Errorf("datalaws: parsing checkpoint.json: %w", err)
	}
	return meta.WALStartSegment, true, nil
}

// stagePartitioned reads partitions.json (if present) and reassembles
// PartitionedTables around the staged child tables. It returns the
// assembled parents plus the set of child table names they own.
func stagePartitioned(dir string, tables []*table.Table) ([]*table.PartitionedTable, map[string]bool, error) {
	children := map[string]bool{}
	f, err := os.Open(filepath.Join(dir, "partitions.json"))
	if os.IsNotExist(err) {
		return nil, children, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var man partitionsManifest
	if err := json.NewDecoder(f).Decode(&man); err != nil {
		return nil, nil, fmt.Errorf("datalaws: loading partitions.json: %w", err)
	}
	byName := map[string]*table.Table{}
	for _, t := range tables {
		byName[t.Name] = t
	}
	var out []*table.PartitionedTable
	listed := map[string]bool{}
	for _, d := range man.Tables {
		if listed[d.Name] {
			return nil, nil, fmt.Errorf("datalaws: partitions.json lists table %q twice", d.Name)
		}
		listed[d.Name] = true
		kids := make([]*table.Table, len(d.Parts))
		for i, p := range d.Parts {
			child, ok := byName[table.PartitionTableName(d.Name, p.Name)]
			if !ok {
				return nil, nil, fmt.Errorf("datalaws: partitions.json lists partition %q of %q but %s.dltab is missing",
					p.Name, d.Name, table.PartitionTableName(d.Name, p.Name))
			}
			kids[i] = child
		}
		if len(kids) == 0 {
			return nil, nil, fmt.Errorf("datalaws: partitions.json entry %q has no partitions", d.Name)
		}
		pt, err := table.NewPartitionedFrom(d.Name, kids[0].Schema(), d.PartCol, d.Parts, kids)
		if err != nil {
			return nil, nil, fmt.Errorf("datalaws: reassembling partitioned table %q: %w", d.Name, err)
		}
		for _, k := range kids {
			children[k.Name] = true
		}
		out = append(out, pt)
	}
	return out, children, nil
}
