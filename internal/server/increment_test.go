package server

import (
	"fmt"
	"math"
	"testing"
	"time"

	"datalaws/internal/aqp"
	"datalaws/internal/codec"
	"datalaws/internal/fit"
	"datalaws/internal/modelstore"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// TestReplicaRejectsMalformedIncrements hands applyBatch the increments a
// broken or hostile primary could ship. Each must come back as an error,
// on which the replicator redials and resyncs, never as a panic, and must
// leave the replica's state as it was.
func TestReplicaRejectsMalformedIncrements(t *testing.T) {
	srv, _ := newPrimary(t)
	sub, err := dialTest(t, srv).SubscribeModels()
	if err != nil {
		t.Fatal(err)
	}
	reng, rep := OpenReplica(srv.Addr(), nil) // never started: applyBatch is driven by hand
	if err := rep.applyBatch(sub); err != nil {
		t.Fatal(err)
	}
	count := func() int64 { return reng.MustExec("APPROX SELECT count(*) FROM m").Rows[0][0].I }
	if n := count(); n != 32 {
		t.Fatalf("after the subscribe: count = %d, want 32", n)
	}
	// next continues the subscribe's increment (rows 0..32) by one row.
	next := func(edit func(*DomainIncrement)) *DeltaBatch {
		d := DomainIncrement{Model: "law", Increment: aqp.Increment{
			From: 32, To: 33, Values: [][]float64{{2.25}}, Bad: []bool{false},
			Groups: []int64{1}, Inputs: []float64{2.25}, Width: 1,
		}}
		edit(&d)
		return &DeltaBatch{Increments: []DomainIncrement{d}}
	}
	for _, tc := range []struct {
		name string
		edit func(*DomainIncrement)
	}{
		{"fewer inputs than groups x width", func(d *DomainIncrement) { d.Groups, d.Inputs = []int64{1, 2}, []float64{0.5} }},
		{"more inputs than groups x width", func(d *DomainIncrement) { d.Inputs = []float64{0.5, 1} }},
		{"width other than the model's inputs", func(d *DomainIncrement) { d.Inputs, d.Width = []float64{2.25, 1}, 2 }},
		{"starts past the rows held", func(d *DomainIncrement) { d.From, d.To = 40, 41 }},
		{"ends before it starts", func(d *DomainIncrement) { d.To = 31 }},
		{"values not sorted", func(d *DomainIncrement) { d.Values = [][]float64{{2.5, 2.25}} }},
		{"values repeated", func(d *DomainIncrement) { d.Values = [][]float64{{2.25, 2.25}} }},
		{"NaN value", func(d *DomainIncrement) { d.Values = [][]float64{{math.NaN()}} }},
		{"value lists for other inputs", func(d *DomainIncrement) { d.Values = [][]float64{{2.25}, {1}} }},
		{"statuses for other inputs", func(d *DomainIncrement) { d.Bad = nil }},
		{"unknown model", func(d *DomainIncrement) { d.Model = "nosuch" }},
	} {
		if err := rep.applyBatch(next(tc.edit)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if n := count(); n != 32 {
			t.Fatalf("%s: count = %d after a rejected increment, want 32", tc.name, n)
		}
	}
	if d := codec.NewDecoder([]byte("not an increment list")); decodeIncrements(d) != nil || d.End() == nil {
		t.Error("garbled increment bytes decoded")
	}
	// The well-formed continuation still applies, and a restart from row 0
	// replaces the state.
	if err := rep.applyBatch(next(func(*DomainIncrement) {})); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 33 {
		t.Fatalf("after the continuation: count = %d, want 33", n)
	}
	if err := rep.applyBatch(next(func(d *DomainIncrement) { d.From = 0 })); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("after a restart from row 0: count = %d, want 1", n)
	}
}

// TestFeedRefitPollShipsParametersOnly: a subscribe ships every observed
// combination once; a poll after a refit with no new rows carries the
// model's parameters and no combination; a poll after one appended row
// carries that row's combination alone.
func TestFeedRefitPollShipsParametersOnly(t *testing.T) {
	srv, peng := newPrimary(t)
	cli := dialTest(t, srv)
	sub, err := cli.SubscribeModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Increments) != 1 || len(sub.Increments[0].Groups) != 32 || sub.Increments[0].From != 0 {
		t.Fatalf("subscribe: increments %+v, want one from row 0 with 32 combinations", sub.Increments)
	}
	peng.MustExec("REFIT MODEL law")
	b, err := cli.PollDeltas(sub.Term, sub.Seq, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Deltas) != 1 || b.Deltas[0].Kind != modelstore.ChangeRefit || b.Deltas[0].Model == nil || b.Deltas[0].Model.Version != 2 || len(b.Deltas[0].Model.Groups) != 4 {
		t.Fatalf("refit poll: deltas %+v, want the refit's parameters", b.Deltas)
	}
	if len(b.Increments) != 0 {
		t.Fatalf("refit poll with no new rows: increments %+v, want none", b.Increments)
	}
	if _, err := peng.Append("m", lawRows(1, 0, 1)[:1]); err != nil { // (0, 0.25), an old combination
		t.Fatal(err)
	}
	b, err = cli.PollDeltas(b.Term, b.Seq, 10*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Increments) != 1 || b.Increments[0].From != 32 || b.Increments[0].To != 33 || len(b.Increments[0].Groups) != 0 || b.Increments[0].Values != nil {
		t.Fatalf("poll after an old combination: increments %+v, want rows 32 to 33 and nothing new", b.Increments)
	}
}

// FuzzFeedIncrement decodes arbitrary bytes as a feed reply's increments,
// with the frame codec's decoder of them, and applies each to a replica state holding two combinations. Nothing may
// panic, and an increment Apply accepts must leave a legal set whose
// Contains agrees with a map of the same combinations.
func FuzzFeedIncrement(f *testing.F) {
	for _, incs := range [][]DomainIncrement{
		{{Increment: aqp.Increment{From: 0, To: 3, Values: [][]float64{{0.5, 1}}, Bad: []bool{false}, Groups: []int64{1, 2}, Inputs: []float64{0.5, 1}, Width: 1}}},
		{{Increment: aqp.Increment{From: 2, To: 3, Bad: []bool{false, false}, Groups: []int64{7}, Inputs: []float64{0.5, -1}, Width: 2}}},
		{{Increment: aqp.Increment{From: 2, To: 5, Bad: []bool{false}, Groups: []int64{1, 2}, Inputs: []float64{0.5}, Width: 1}}},
		{{Increment: aqp.Increment{From: 2, To: 2, Values: [][]float64{{2, 1}}, Bad: []bool{true}, Width: 1, Err: "a NULL"}}},
	} {
		var e codec.Encoder
		encodeIncrements(&e, incs)
		f.Add([]byte(e))
	}
	f.Add([]byte("junk"))
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "source", Type: storage.TypeInt64},
		table.ColumnDef{Name: "nu", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
	)
	if err != nil {
		f.Fatal(err)
	}
	stub := table.New("m", schema)
	law := func(inputs ...string) *modelstore.CapturedModel {
		return &modelstore.CapturedModel{Spec: modelstore.Spec{Name: "law", Table: "m", GroupBy: "source"}, Model: &fit.Model{Inputs: inputs}}
	}
	models := map[int]*modelstore.CapturedModel{1: law("nu"), 2: law("nu", "x")}
	key := func(g int64, inputs []float64) string {
		k := fmt.Sprint(g)
		for _, x := range inputs {
			k += fmt.Sprintf(" %x", math.Float64bits(x))
		}
		return k
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		incs := decodeIncrements(d)
		if d.End() != nil {
			return
		}
		for _, d := range incs {
			m, ok := models[d.Width]
			if !ok {
				m = models[1]
			}
			w := len(m.Model.Inputs)
			c := aqp.NewCache()
			base := aqp.Increment{From: 0, To: 2, Bad: make([]bool, w), Groups: []int64{1, 2}, Inputs: make([]float64, 2*w), Width: w}
			if err := c.Apply(stub, m, &base); err != nil {
				t.Fatal(err)
			}
			if err := c.Apply(stub, m, &d.Increment); err != nil {
				continue
			}
			naive := map[string]bool{}
			type probe struct {
				g  int64
				in []float64
			}
			var probes []probe
			add := func(inc *aqp.Increment) {
				for i, g := range inc.Groups {
					in := inc.Inputs[i*w : (i+1)*w]
					naive[key(g, in)] = true
					probes = append(probes, probe{g, in}, probe{g + 1, in})
				}
			}
			if d.From != 0 {
				add(&base)
			}
			add(&d.Increment)
			_, legal, _, err := c.Get(stub, m)
			if err != nil {
				continue // a status the increment shipped: not enumerable
			}
			for _, p := range probes {
				if got, want := legal.Contains(p.g, p.in), naive[key(p.g, p.in)]; got != want {
					t.Fatalf("Contains(%d, %v) = %v, map says %v", p.g, p.in, got, want)
				}
			}
		}
	})
}

// TestReplicaRejectsUnservableModelDeltas hands applyBatch a model delta
// whose record the replica could not serve: a covariance too small for the
// law's parameters (the first WITH ERROR point would panic the replica) or
// a group listed twice (APPROX counts would double it). Each must come back
// as an error and leave the installed model answering as before.
func TestReplicaRejectsUnservableModelDeltas(t *testing.T) {
	srv, _ := newPrimary(t)
	sub, err := dialTest(t, srv).SubscribeModels()
	if err != nil {
		t.Fatal(err)
	}
	reng, rep := OpenReplica(srv.Addr(), nil) // never started: applyBatch is driven by hand
	if err := rep.applyBatch(sub); err != nil {
		t.Fatal(err)
	}
	const point = "APPROX SELECT intensity, intensity_lo FROM m WHERE source = 0 AND nu = 1.5 WITH ERROR"
	check := func(when string) {
		t.Helper()
		if n := reng.MustExec("APPROX SELECT count(*) FROM m").Rows[0][0].I; n != 32 {
			t.Fatalf("%s: count = %d, want 32", when, n)
		}
		if _, err := reng.Exec(point); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("after the subscribe")
	var law ModelDelta
	for _, d := range sub.Deltas {
		if d.Name == "law" {
			law = d
		}
	}
	if law.Model == nil || len(law.Model.Groups) < 2 {
		t.Fatal("subscribe shipped no grouped law")
	}
	for _, tc := range []struct {
		name string
		edit func(*modelstore.ModelRecord)
	}{
		{"1x1 cov for 2 params", func(r *modelstore.ModelRecord) { r.Groups[0].Cov = [][]float64{{1}} }},
		{"duplicate group", func(r *modelstore.ModelRecord) { r.Groups = append(r.Groups, r.Groups[0]) }},
	} {
		rec := *law.Model
		rec.Groups = append([]modelstore.GroupRecord(nil), rec.Groups...)
		tc.edit(&rec)
		d := law
		d.Model = &rec
		if err := rep.applyBatch(&DeltaBatch{Deltas: []ModelDelta{d}}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		check(tc.name)
	}
}
