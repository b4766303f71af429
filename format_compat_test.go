package datalaws

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/table"
	"datalaws/internal/wal"
)

// Format pins: the WAL's records and a snapshot directory as written by an
// earlier build must keep their bytes and keep loading. The DDL and
// snapshot pins go through the engine's public surface only, so they hold
// whatever types the engine uses internally to carry a declaration or a
// law; the append pin and the re-save check use the record and table codecs
// directly.

// compatCreate and compatFit are the declarations both pins are built from:
// a partitioned three-column table and a law with WHERE and START.
const (
	compatCreate = `CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)
		PARTITION BY RANGE(source) (
			PARTITION p0 VALUES LESS THAN (2),
			PARTITION rest VALUES LESS THAN (MAXVALUE))`
	compatFit = `FIT MODEL law ON m AS 'intensity ~ a * nu + b'
		INPUTS (nu) GROUP BY source WHERE nu > 0.5 START (a = 1, b = -0.5)`
)

// compatRows is the snapshot fixture's data: four sources of a noisy line.
func compatRows() [][]expr.Value {
	var rows [][]expr.Value
	for s := 0; s < 4; s++ {
		for i := 1; i <= 8; i++ {
			nu := 0.5 * float64(i)
			noise := 0.01 * math.Sin(float64(i*(s+1)))
			rows = append(rows, []expr.Value{
				expr.Int(int64(s)), expr.Float(nu), expr.Float(float64(2+s)*nu + float64(s) + noise),
			})
		}
	}
	return rows
}

// walGoldenHex is the log segment a durable engine writes for compatCreate
// followed by compatFit: two frames, [len u32 LE][crc32c u32 LE][payload].
const walGoldenHex = "" +
	// create-table: type, name, 3 × (name, type code), partition column,
	// 2 × (name, upper float64 LE, max)
	"3d000000" + "e1a12920" +
	"02" + "016d" + "03" + "06736f75726365" + "00" + "026e75" + "01" + "09696e74656e73697479" + "01" +
	"06736f75726365" + "02" + "027030" + "0000000000000040" + "00" + "0472657374" + "0000000000000000" + "01" +
	// fit-model: type, name, table, formula, inputs, group by, where
	// source, method, sorted START pairs
	"4a000000" + "1af21942" +
	"04" + "036c6177" + "016d" + "16696e74656e73697479207e2061202a206e75202b2062" + "01" + "026e75" +
	"06736f75726365" + "0a286e75203e20302e3529" + "00" +
	"02" + "0161" + "000000000000f03f" + "0162" + "000000000000e0bf"

// TestWALGoldenDDLRecords pins the bytes of a partitioned CREATE TABLE
// record and a FIT MODEL record (WHERE and START), checks that each payload
// re-encodes to itself, and that replay rebuilds the declaration and the
// law's spec.
func TestWALGoldenDDLRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(compatCreate)
	e.MustExec(compatFit)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "wal-00000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(walGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, want) {
		t.Fatalf("segment bytes changed\ngot  %x\nwant %x", seg, want)
	}
	for off, i := 0, 0; off < len(seg); i++ {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		payload := seg[off+8 : off+8+n]
		rec, err := wal.Decode(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := rec.Encode(); !bytes.Equal(got, payload) {
			t.Fatalf("frame %d re-encodes to %x, want %x", i, got, payload)
		}
		off += 8 + n
	}

	e2, err := Open(dir, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	pt, ok := e2.Catalog.GetPartitioned("m")
	if !ok {
		t.Fatal("replay lost the partitioned table")
	}
	if got := fmt.Sprint(pt.Column(), pt.Ranges(), pt.Schema().Cols); got != "source[{p0 2 false} {rest 0 true}] [{source BIGINT} {nu DOUBLE} {intensity DOUBLE}]" {
		t.Fatalf("replayed declaration = %s", got)
	}
	fam := e2.Models.Family("law")
	if len(fam) != 2 {
		t.Fatalf("replayed family has %d members, want 2", len(fam))
	}
	for _, m := range fam {
		s := m.Spec
		if s.Formula != "intensity ~ a * nu + b" || !reflect.DeepEqual(s.Inputs, []string{"nu"}) ||
			s.GroupBy != "source" || s.Where == nil || s.Where.String() != "(nu > 0.5)" ||
			!reflect.DeepEqual(s.Start, map[string]float64{"a": 1, "b": -0.5}) || s.Method != "" {
			t.Fatalf("replayed spec of %s = %+v", s.Name, s)
		}
	}
}

// walAppendGoldenHex is the payload of an append record whose two rows
// carry every value kind: type, table, row count, then per row the column
// count and (kind, value) pairs — a zigzag varint, a float64 LE, a
// length-prefixed string, a bool byte, or a NULL with no value.
const walAppendGoldenHex = "" +
	"01" + "016d" + "02" +
	"05" + "0105" + "02000000000000f83f" + "0306717561736172" + "0401" + "00" +
	"05" + "01d804" + "00" + "0300" + "0400" + "02000000000000d0bf"

// TestWALGoldenAppendRecord pins the bytes of an append record and checks
// that they decode to the same rows.
func TestWALGoldenAppendRecord(t *testing.T) {
	rec := &wal.Record{Type: wal.TypeAppend, Table: "m", Rows: [][]expr.Value{
		{expr.Int(-3), expr.Float(1.5), expr.Str("quasar"), expr.Bool(true), expr.Null()},
		{expr.Int(300), expr.Null(), expr.Str(""), expr.Bool(false), expr.Float(-0.25)},
	}}
	want, err := hex.DecodeString(walAppendGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("payload bytes changed\ngot  %x\nwant %x", got, want)
	}
	back, err := wal.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("decoded %+v, want %+v", back, rec)
	}
}

// TestEarlierSnapshotResavesIdentically: every table file of
// testdata/snapshot_v1 loads and saves back to the same bytes.
func TestEarlierSnapshotResavesIdentically(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "snapshot_v1", "snap-*", "*.dltab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("found %d table files, want 2", len(files))
	}
	for _, fn := range files {
		b, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := table.ReadBinary(b)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		var again bytes.Buffer
		if err := table.WriteBinary(tb, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), b) {
			t.Fatalf("%s re-saves to different bytes\ngot  %x\nwant %x", fn, again.Bytes(), b)
		}
	}
}

// TestLoadEarlierSnapshot loads testdata/snapshot_v1 — the directory SaveDir
// wrote for compatCreate, compatRows and compatFit before the declaration
// and spec types were unified (its models.json still carries the retired
// fitted_version key) — and checks it against the same catalog built fresh.
func TestLoadEarlierSnapshot(t *testing.T) {
	old := NewEngine()
	if err := old.LoadDir(filepath.Join("testdata", "snapshot_v1")); err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine()
	fresh.MustExec(compatCreate)
	if _, err := fresh.Append("m", compatRows()); err != nil {
		t.Fatal(err)
	}
	fresh.MustExec(compatFit)

	opt, ok := old.Catalog.GetPartitioned("m")
	if !ok {
		t.Fatal("partitioned table missing after load")
	}
	fpt, _ := fresh.Catalog.GetPartitioned("m")
	if a, b := fmt.Sprint(opt.Column(), opt.Ranges(), opt.Schema().Cols), fmt.Sprint(fpt.Column(), fpt.Ranges(), fpt.Schema().Cols); a != b {
		t.Fatalf("declaration: loaded %s, fresh %s", a, b)
	}
	const q = `SELECT source, nu, intensity FROM m ORDER BY source, nu`
	if a, b := fmt.Sprint(old.MustExec(q).Rows), fmt.Sprint(fresh.MustExec(q).Rows); a != b {
		t.Fatalf("rows differ:\nloaded %s\nfresh  %s", a, b)
	}
	ofam, ffam := old.Models.Family("law"), fresh.Models.Family("law")
	if len(ofam) != 2 || len(ffam) != 2 {
		t.Fatalf("family sizes: loaded %d, fresh %d", len(ofam), len(ffam))
	}
	for i, om := range ofam {
		fm := ffam[i]
		ls, fs := om.Spec, fm.Spec
		if ls.Name != fs.Name || ls.Table != fs.Table || ls.Formula != fs.Formula ||
			!reflect.DeepEqual(ls.Inputs, fs.Inputs) || ls.GroupBy != fs.GroupBy ||
			ls.Where.String() != fs.Where.String() || !reflect.DeepEqual(ls.Start, fs.Start) || ls.Method != fs.Method {
			t.Fatalf("spec: loaded %+v, fresh %+v", ls, fs)
		}
		if om.Version != fm.Version || om.FittedRows != fm.FittedRows || !reflect.DeepEqual(om.Order, fm.Order) {
			t.Fatalf("%s: version/rows/groups loaded %d/%d/%v, fresh %d/%d/%v",
				ls.Name, om.Version, om.FittedRows, om.Order, fm.Version, fm.FittedRows, fm.Order)
		}
		for _, k := range om.Order {
			og, fg := om.Groups[k], fm.Groups[k]
			if og.N != fg.N || og.DF != fg.DF || len(og.Params) != len(fg.Params) || len(og.Cov) != len(fg.Cov) {
				t.Fatalf("%s group %d: loaded %+v, fresh %+v", ls.Name, k, og, fg)
			}
			for j := range og.Params {
				if math.Abs(og.Params[j]-fg.Params[j]) > 1e-9 {
					t.Fatalf("%s group %d param %d: loaded %v, fresh %v", ls.Name, k, j, og.Params[j], fg.Params[j])
				}
			}
		}
	}
	const aq = `APPROX SELECT intensity FROM m WHERE source = 3 AND nu = 1.5`
	a, b := old.MustExec(aq), fresh.MustExec(aq)
	if len(a.Rows) != 1 || len(b.Rows) != 1 || math.Abs(a.Rows[0][0].F-b.Rows[0][0].F) > 1e-9 {
		t.Fatalf("approx answer: loaded %v, fresh %v", a.Rows, b.Rows)
	}
}
