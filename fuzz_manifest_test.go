package datalaws

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"datalaws/internal/table"
)

// manifestDecls returns the declaration of every partitioned table of e,
// by name.
func manifestDecls(e *Engine) []table.Decl {
	var out []table.Decl
	names := e.Catalog.PartitionedNames()
	sort.Strings(names)
	for _, name := range names {
		if d, ok := e.Catalog.DeclOf(name); ok {
			out = append(out, d)
		}
	}
	return out
}

// FuzzPartitionManifest feeds arbitrary bytes as a snapshot's
// partitions.json, the one decoder of a snapshot that reassembles tables
// from a declaration. The snapshot holds the children of two partitioned
// tables of different schemas and a plain table. Nothing may panic. The
// staged read (stagePartitioned) and the whole load (LoadDir) must agree:
// a manifest either loads or is refused before anything is committed. A
// manifest that loads must place every row of every partition inside that
// partition's range, and must re-save to one that loads to the same
// declarations.
func FuzzPartitionManifest(f *testing.F) {
	base := f.TempDir()
	e := NewEngine()
	for _, stmt := range []string{
		`CREATE TABLE m (source BIGINT, nu DOUBLE) PARTITION BY RANGE(source) (
			PARTITION p0 VALUES LESS THAN (100),
			PARTITION p1 VALUES LESS THAN (200),
			PARTITION rest VALUES LESS THAN (MAXVALUE))`,
		`CREATE TABLE z (k DOUBLE, s VARCHAR) PARTITION BY RANGE(k) (
			PARTITION a VALUES LESS THAN (0.5),
			PARTITION b VALUES LESS THAN (MAXVALUE))`,
		`CREATE TABLE q (source BIGINT, nu DOUBLE)`,
		`INSERT INTO m VALUES (1, 0.5), (150, 1.5), (250, 2.5)`,
		`INSERT INTO z VALUES (0.25, 'x'), (0.75, 'y')`,
		`INSERT INTO q VALUES (7, 7.5)`,
	} {
		if _, err := e.Exec(stmt); err != nil {
			f.Fatal(err)
		}
	}
	if err := e.SaveDir(base); err != nil {
		f.Fatal(err)
	}
	snap, ok, err := readCurrent(base)
	if err != nil || !ok {
		f.Fatalf("no snapshot: %v", err)
	}
	manifest := filepath.Join(snap, "partitions.json")
	saved, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	var tables []*table.Table
	ents, err := os.ReadDir(snap)
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".dltab") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(snap, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		tb, err := table.ReadBinary(b)
		if err != nil {
			f.Fatal(err)
		}
		tables = append(tables, tb)
	}

	f.Add(saved)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"tables":[{"table":"m","column":"source","parts":[{"name":"p0","upper":100},{"name":"p1","max":true}]}]}`))
	f.Add([]byte(`{"tables":[{"table":"m","column":"nu","parts":[{"name":"p1","upper":1},{"name":"p0","upper":1}]}]}`))
	f.Add([]byte(`{"tables":[{"table":"z","column":"s","parts":[{"name":"a","max":true}]}]}`))
	f.Add([]byte(`{"tables":[{"table":"m","column":"source","parts":[]}]}`))
	f.Add([]byte(`{"tables":[{"table":"q","column":"source","parts":[{"name":"x","max":true}]}]}`))
	// One table listed twice: the staged read must refuse it, not the
	// commit of the second copy.
	f.Add([]byte(`{"tables":[{"table":"z","column":"k","parts":[{"name":"a","max":true}]},{"table":"z","column":"k","parts":[{"name":"b","max":true}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, stageErr := stagePartitioned(snap, tables)
		e := NewEngine()
		loadErr := e.LoadDir(base)
		if (stageErr == nil) != (loadErr == nil) {
			t.Fatalf("staged read error %v, load error %v", stageErr, loadErr)
		}
		if loadErr != nil {
			if n := len(e.Catalog.Names()); n != 0 {
				t.Fatalf("a refused load left %d tables behind: %v", n, loadErr)
			}
			return
		}
		checkRowsRoute(t, e)
		dir := t.TempDir()
		if err := e.SaveDir(dir); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		again := NewEngine()
		if err := again.LoadDir(dir); err != nil {
			t.Fatalf("re-saved manifest does not load: %v", err)
		}
		if got, want := manifestDecls(again), manifestDecls(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("declarations after re-save:\n%+v\nwant\n%+v", got, want)
		}
	})
}

// checkRowsRoute fails unless every row of every partitioned table of e
// routes to the partition that holds it.
func checkRowsRoute(t *testing.T, e *Engine) {
	t.Helper()
	for _, name := range e.Catalog.PartitionedNames() {
		pt, _ := e.Catalog.GetPartitioned(name)
		col := pt.Schema().Index(pt.Column())
		for i := 0; i < pt.NumParts(); i++ {
			rows, err := pt.Part(i).Chunks().Head(pt.Part(i).NumRows())
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				f, err := row[col].AsFloat()
				if err != nil {
					t.Fatalf("%s partition %d holds %v: %v", name, i, row[col], err)
				}
				if p, err := pt.Route(f); err != nil || p != i {
					t.Fatalf("%s partition %d holds %s = %v, which routes to %d (%v)", name, i, pt.Column(), row[col], p, err)
				}
			}
		}
	}
}
