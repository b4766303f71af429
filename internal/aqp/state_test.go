package aqp

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/fit"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// The domain state's contract: whatever sequence of appends a table sees,
// the state Cache.Get extends is the one a from-zero enumeration of the
// same rows builds, errors included, and artifacts it handed out earlier
// never change. The reference below enumerates boxed rows with plain maps
// and shares no code with the state.

// withChunkRows shrinks the seal threshold for tables created by the test,
// so appends cross chunk boundaries.
func withChunkRows(t *testing.T, n int) {
	t.Helper()
	old := table.DefaultChunkRows
	table.DefaultChunkRows = n
	t.Cleanup(func() { table.DefaultChunkRows = old })
}

// stateTable has a BIGINT group g, numeric inputs x (DOUBLE) and n
// (BIGINT), a STRING column s and a DOUBLE column gd.
func stateTable(t *testing.T) *table.Table {
	t.Helper()
	schema, err := table.NewSchema(
		table.ColumnDef{Name: "g", Type: storage.TypeInt64},
		table.ColumnDef{Name: "x", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "n", Type: storage.TypeInt64},
		table.ColumnDef{Name: "s", Type: storage.TypeString},
		table.ColumnDef{Name: "gd", Type: storage.TypeFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return table.New("obs", schema)
}

func stateRow(g int64, x float64, n int64) []expr.Value {
	return []expr.Value{expr.Int(g), expr.Float(x), expr.Int(n), expr.Str("a"), expr.Float(float64(g))}
}

// lawOver is a captured model with only what enumeration reads: its table's
// group column and inputs. Version tells refits apart.
func lawOver(version int, group string, inputs ...string) *modelstore.CapturedModel {
	return &modelstore.CapturedModel{
		Spec:    modelstore.Spec{Name: "law", Table: "obs", GroupBy: group},
		Model:   &fit.Model{Inputs: inputs},
		Version: version,
	}
}

// reference enumerates one whole view from its boxed rows with plain maps,
// sharing no code with the state: per-input domains (DomainsFor's contract,
// badInput names the first input that does not enumerate) and the observed
// combinations (BuildLegalSet's, legalBad when it must fail).
func reference(t *testing.T, v *table.ChunkView, m *modelstore.CapturedModel) (doms [][]float64, combos map[string]bool, badInput string, legalBad bool) {
	t.Helper()
	rows, err := v.Head(v.Rows())
	if err != nil {
		t.Fatal(err)
	}
	schema := v.Schema()
	// value reads column name of row r as a number; ok is false for a
	// missing, non-numeric (BIGINT only when intOnly) or NULL value.
	value := func(r []expr.Value, name string, intOnly bool) (float64, bool) {
		i := schema.Index(name)
		if i < 0 || r[i].IsNull() {
			return 0, false
		}
		switch typ := schema.Cols[i].Type; {
		case typ == storage.TypeInt64:
			return float64(r[i].I), true
		case typ == storage.TypeFloat64 && !intOnly:
			return r[i].F, true
		}
		return 0, false
	}
	usable := func(name string, intOnly bool) bool {
		i := schema.Index(name)
		return i >= 0 && (schema.Cols[i].Type == storage.TypeInt64 || !intOnly && schema.Cols[i].Type == storage.TypeFloat64)
	}
	for _, in := range m.Model.Inputs {
		seen, ok := map[float64]bool{}, usable(in, false)
		for _, r := range rows {
			x, good := value(r, in, false)
			ok = ok && good
			seen[x] = true
		}
		if !ok || len(seen) > DefaultMaxDistinct {
			if badInput == "" {
				badInput = in
			}
			continue
		}
		doms = append(doms, slices.Sorted(maps.Keys(seen)))
	}
	combos = map[string]bool{}
	legalBad = m.Spec.GroupBy != "" && !usable(m.Spec.GroupBy, true)
	for _, in := range m.Model.Inputs {
		legalBad = legalBad || !usable(in, false)
	}
	for _, r := range rows {
		var g float64
		if m.Spec.GroupBy != "" {
			var ok bool
			g, ok = value(r, m.Spec.GroupBy, true)
			legalBad = legalBad || !ok
		}
		in := make([]float64, len(m.Model.Inputs))
		for i, name := range m.Model.Inputs {
			var ok bool
			in[i], ok = value(r, name, false)
			legalBad = legalBad || !ok
		}
		combos[comboString(int64(g), in)] = true
	}
	return doms, combos, badInput, legalBad
}

func comboString(g int64, inputs []float64) string { return fmt.Sprint(g, inputs) }

// combosOf lists an exact legal set's combinations, decoding its keys.
func combosOf(t *testing.T, ls *ExactLegalSet) map[string]bool {
	t.Helper()
	word := func(k string, i int) uint64 {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(k[8*i+b]) << (8 * b)
		}
		return v
	}
	out := map[string]bool{}
	for k := range ls.set {
		inputs := make([]float64, len(k)/8-1)
		for i := range inputs {
			inputs[i] = math.Float64frombits(word(k, 1+i))
		}
		out[comboString(int64(word(k, 0)), inputs)] = true
	}
	return out
}

// checkAgainstReference asserts that the cached state for m, and DomainsFor
// plus the exact BuildLegalSet (the same routine from an empty state), agree
// with the reference enumeration of tb's current rows, and that both report
// the same error text.
func checkAgainstReference(t *testing.T, c *Cache, tb *table.Table, m *modelstore.CapturedModel, step string) {
	t.Helper()
	wantDoms, wantCombos, badInput, legalBad := reference(t, tb.Chunks(), m)
	same := func(what string, doms []Domain, legal *ExactLegalSet, err error) {
		t.Helper()
		switch {
		case badInput != "":
			want := fmt.Sprintf("aqp: column %q is not enumerable (more than %d distinct values)", badInput, DefaultMaxDistinct)
			if err == nil || err.Error() != want {
				t.Fatalf("%s: %s error %v, want %q", step, what, err, want)
			}
			return
		case legalBad:
			if err == nil {
				t.Fatalf("%s: %s enumerated a legal set the reference rejects", step, what)
			}
			return
		case err != nil:
			t.Fatalf("%s: %s: %v", step, what, err)
		}
		for i, d := range doms {
			if d.Col != m.Model.Inputs[i] || !slices.Equal(d.Vals, wantDoms[i]) {
				t.Fatalf("%s: %s domain %d = %s %v, reference %v", step, what, i, d.Col, d.Vals, wantDoms[i])
			}
		}
		if got := combosOf(t, legal); !maps.Equal(got, wantCombos) {
			t.Fatalf("%s: %s has %d legal combos, reference %d", step, what, len(got), len(wantCombos))
		}
	}
	doms, legal, _, err := c.Get(tb, m)
	same("incremental", doms, legal, err)
	v := tb.Chunks()
	sdoms, serr := DomainsFor(v, m.Model.Inputs, 0)
	var slegal *ExactLegalSet
	if serr == nil {
		slegal, serr = BuildLegalSet(v, m.Spec.GroupBy, m.Model.Inputs)
	}
	same("from zero", sdoms, slegal, serr)
	if err != nil && err.Error() != serr.Error() {
		t.Fatalf("%s: incremental error %q, from zero %q", step, err, serr)
	}
}

func TestDomainStateMatchesFromZeroBuild(t *testing.T) {
	withChunkRows(t, 7)
	models := []*modelstore.CapturedModel{
		lawOver(1, "g", "x", "n"),
		lawOver(1, "", "x"),
		lawOver(1, "g", "n"),
	}
	for _, seed := range []int64{1, 2, 3} {
		tb := stateTable(t)
		c := NewCache()
		rng := rand.New(rand.NewSource(seed))
		xs := []float64{0.12, 0.14, 0.16}
		for step := 0; step < 60; step++ {
			batch := make([][]expr.Value, 1+rng.Intn(12))
			for i := range batch {
				g, x, n := 1+rng.Int63n(4), xs[rng.Intn(len(xs))], rng.Int63n(3)
				switch rng.Intn(10) {
				case 0: // a new input value
					xs = append(xs, 0.2+float64(len(xs))/100)
					x = xs[len(xs)-1]
				case 1: // a new group, hence new combinations
					g = 10 + int64(step)
				}
				batch[i] = stateRow(g, x, n)
			}
			if _, err := tb.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			for mi, m := range models {
				checkAgainstReference(t, c, tb, m, fmt.Sprintf("seed %d step %d model %d", seed, step, mi))
			}
		}
		if tb.Chunks().NumSealed() < 10 {
			t.Fatalf("seed %d: only %d sealed chunks; appends must cross seal boundaries", seed, tb.Chunks().NumSealed())
		}
		// One build per model, then every row read exactly once per model.
		if builds, rows := c.Stats(); builds != len(models) || rows != len(models)*tb.NumRows() {
			t.Fatalf("seed %d: builds, rows = %d, %d; want %d, %d", seed, builds, rows, len(models), len(models)*tb.NumRows())
		}
	}
}

func TestDomainStateErrorsMatchFromZeroBuild(t *testing.T) {
	withChunkRows(t, 7)
	tb := stateTable(t)
	c := NewCache()
	nullIn := lawOver(1, "g", "x")     // a NULL input: DomainsFor's error
	nullGroup := lawOver(1, "g", "n")  // a NULL group: BuildLegalSet's error
	text := lawOver(1, "g", "s")       // non-numeric input
	notBigint := lawOver(1, "gd", "x") // DOUBLE group column
	models := []*modelstore.CapturedModel{nullIn, nullGroup, text, notBigint}
	check := func(step string) {
		t.Helper()
		for i, m := range models {
			checkAgainstReference(t, c, tb, m, fmt.Sprintf("%s model %d", step, i))
		}
	}
	appendRows := func(rows ...[]expr.Value) {
		t.Helper()
		if _, err := tb.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	check("empty")
	for i := 0; i < 10; i++ {
		appendRows(stateRow(int64(i%3), 0.1, int64(i%2)))
	}
	check("clean")
	if _, _, _, err := c.Get(tb, nullIn); err != nil {
		t.Fatalf("clean rows: %v", err)
	}
	appendRows([]expr.Value{expr.Int(1), expr.Null(), expr.Int(0), expr.Str("b"), expr.Float(1)})
	check("NULL input")
	appendRows([]expr.Value{expr.Null(), expr.Float(0.1), expr.Int(1), expr.Str("b"), expr.Float(1)})
	check("NULL group")
	for i := 0; i < 20; i++ {
		appendRows(stateRow(int64(i%3), 0.1, int64(i%2)))
		check(fmt.Sprintf("clean after NULLs %d", i))
	}
	for _, m := range models {
		if _, _, _, err := c.Get(tb, m); err == nil {
			t.Fatalf("model over %s|%v answers after a NULL or a bad column", m.Spec.GroupBy, m.Model.Inputs)
		}
	}
}

func TestDomainStateStaysNonEnumerablePastMaxDistinct(t *testing.T) {
	withChunkRows(t, 1000)
	tb := stateTable(t)
	c := NewCache()
	m := lawOver(1, "g", "x")
	next := 0.0
	for step := 0; step < 5; step++ {
		batch := make([][]expr.Value, 3000)
		for i := range batch {
			batch[i] = stateRow(1, next, 0)
			next++
		}
		if _, err := tb.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, c, tb, m, fmt.Sprintf("distinct step %d", step))
		_, _, _, err := c.Get(tb, m)
		if over := tb.NumRows() > DefaultMaxDistinct; over != (err != nil) {
			t.Fatalf("%d distinct values: err = %v", tb.NumRows(), err)
		}
	}
	// Old values only: the domain has crossed the bound for good.
	if _, err := tb.AppendRows([][]expr.Value{stateRow(1, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, c, tb, m, "after crossing")
	if builds, _ := c.Stats(); builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
}

func TestDomainStateReusedAcrossRefit(t *testing.T) {
	withChunkRows(t, 7)
	tb := stateTable(t)
	c := NewCache()
	for i := 0; i < 30; i++ {
		if err := tb.AppendRow(stateRow(int64(i%4), 0.1*float64(i%3), 0)); err != nil {
			t.Fatal(err)
		}
	}
	v1 := lawOver(1, "g", "x")
	doms, legal, _, err := c.Get(tb, v1)
	if err != nil {
		t.Fatal(err)
	}
	// Artifacts handed out before an extension, copied by value.
	wantVals := slices.Clone(doms[0].Vals)
	wantCombos := combosOf(t, legal)

	// Appends with a new value and a new combination, then a refit (a new
	// model version over the same inputs): the state is extended by the
	// appended rows only and reused by the new version, never rebuilt.
	if _, err := tb.AppendRows([][]expr.Value{stateRow(1, 0.7, 0), stateRow(9, 0.1, 0)}); err != nil {
		t.Fatal(err)
	}
	v2 := lawOver(2, "g", "x")
	builds0, rows0 := c.Stats()
	doms2, legal2, _, err := c.Get(tb, v2)
	if err != nil {
		t.Fatal(err)
	}
	if builds, rows := c.Stats(); builds != builds0 || rows-rows0 != 2 {
		t.Fatalf("refit after append: builds %d -> %d, rows read %d; want no build, 2 rows", builds0, builds, rows-rows0)
	}
	if !domainContains(doms2[0], 0.7) || !legal2.Contains(9, []float64{0.1}) {
		t.Fatal("extension missed the appended value or combination")
	}
	checkAgainstReference(t, c, tb, v2, "after refit")
	// Copy on write: the earlier slice and set are exactly as handed out.
	if !slices.Equal(doms[0].Vals, wantVals) {
		t.Fatalf("domain handed out earlier changed: %v, was %v", doms[0].Vals, wantVals)
	}
	if got := combosOf(t, legal); !maps.Equal(got, wantCombos) {
		t.Fatalf("legal set handed out earlier changed: %d combos, was %d", len(got), len(wantCombos))
	}
}

// TestDomainStateConcurrentBinds runs prepared APPROX binds on several
// goroutines beside one appender that adds new values and combinations
// across seal boundaries. Under -race it proves published states are never
// written; at the end the cached state equals a from-zero enumeration.
func TestDomainStateConcurrentBinds(t *testing.T) {
	withChunkRows(t, 64)
	cat, tb, store, m, _ := fixture(t)
	opts := DefaultOptions()
	opts.Cache = NewCache()
	opts.Policy.MaxStalenessFrac = 0 // the appender nearly doubles the table; keep serving
	st, err := sql.Parse("APPROX SELECT count(*) FROM measurements")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sql.SelectStmt)
	preps := make([]*Prepared, 3)
	for i := range preps {
		if preps[i], err = PrepareApproxSelect(cat, store, sel, opts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			batch := make([][]expr.Value, 1+rng.Intn(8))
			for j := range batch {
				nu := 0.12 + 0.02*float64(rng.Intn(4))
				if rng.Intn(4) == 0 {
					nu = 0.3 + float64(rng.Intn(20))/100 // new frequencies, hence new combinations
				}
				batch[j] = []expr.Value{expr.Int(1 + rng.Int63n(25)), expr.Float(nu), expr.Float(1)}
			}
			if _, err := tb.AppendRows(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, prep := range preps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				plan, err := prep.Bind(sel)
				if err != nil {
					t.Error(err)
					return
				}
				rows, err := exec.Drain(plan.Op)
				if err != nil {
					t.Error(err)
					return
				}
				// Legal combinations only accumulate.
				n := rows[0][0].I
				if n < last {
					t.Errorf("count fell from %d to %d", last, n)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
	checkAgainstReference(t, opts.Cache, tb, m, "after concurrent binds")
}

// TestIncrementChainMatchesFromZeroBuild is the replica's side of the
// contract: a table split at random row boundaries ships a chain of
// increments through a Feed, and the state a replica Cache builds from them
// over a zero-row stub equals a from-zero build of the primary's rows —
// domains, legal-set membership and error text — after every link,
// through a NULL group key and an input past DefaultMaxDistinct values.
func TestIncrementChainMatchesFromZeroBuild(t *testing.T) {
	withChunkRows(t, 64)
	type scenario struct {
		name   string
		rows   [][]expr.Value
		models []*modelstore.CapturedModel
	}
	rng := rand.New(rand.NewSource(5))
	var nullGroup [][]expr.Value
	for i := 0; i < 400; i++ {
		r := stateRow(1+rng.Int63n(6), []float64{0.12, 0.14, 0.16, 0.2 + float64(i/40)/100}[rng.Intn(4)], rng.Int63n(3))
		if i == 250 {
			r[0] = expr.Null()
		}
		nullGroup = append(nullGroup, r)
	}
	var wide [][]expr.Value
	for i := 0; i < DefaultMaxDistinct+600; i++ {
		wide = append(wide, stateRow(int64(i%7), float64(i), int64(i%3)))
	}
	for _, sc := range []scenario{
		{"NULL group key", nullGroup, []*modelstore.CapturedModel{lawOver(1, "g", "x", "n"), lawOver(1, "", "x"), lawOver(1, "g", "n")}},
		{"past DefaultMaxDistinct", wide, []*modelstore.CapturedModel{lawOver(1, "g", "x"), lawOver(1, "g", "n")}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			tb, stub := stateTable(t), stateTable(t)
			primary, replica, feed := NewCache(), NewCache(), Feed{}
			for from, step := 0, 0; from < len(sc.rows); step++ {
				to := min(len(sc.rows), from+1+rng.Intn(len(sc.rows)/8))
				if _, err := tb.AppendRows(sc.rows[from:to]); err != nil {
					t.Fatal(err)
				}
				from = to
				for _, m := range sc.models {
					inc, ok := feed.Next(primary, tb, m)
					if !ok {
						t.Fatalf("step %d: no increment after %d appended rows", step, to)
					}
					if err := replica.Apply(stub, m, &inc); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if _, again := feed.Next(primary, tb, m); again {
						t.Fatalf("step %d: a second increment with no rows appended", step)
					}
					sameAsFromZero(t, replica, stub, tb, m, fmt.Sprintf("step %d (%d rows) %s|%v", step, to, m.Spec.GroupBy, m.Model.Inputs))
				}
			}
			if _, _, _, err := replica.Get(stub, sc.models[0]); err == nil {
				t.Fatal("the first model enumerates; the scenario must end in its error")
			}
		})
	}
}

// sameAsFromZero asserts that the replica state of m over stub equals
// DomainsFor plus BuildLegalSet over tb's rows, errors included.
func sameAsFromZero(t *testing.T, replica *Cache, stub, tb *table.Table, m *modelstore.CapturedModel, step string) {
	t.Helper()
	v := tb.Chunks()
	wantDoms, wantErr := DomainsFor(v, m.Model.Inputs, 0)
	var wantLegal *ExactLegalSet
	if wantErr == nil {
		wantLegal, wantErr = BuildLegalSet(v, m.Spec.GroupBy, m.Model.Inputs)
	}
	doms, legal, _, err := replica.Get(stub, m)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: replica error %v, from zero %v", step, err, wantErr)
	}
	if err != nil {
		return
	}
	for i := range doms {
		if doms[i].Col != wantDoms[i].Col || !slices.Equal(doms[i].Vals, wantDoms[i].Vals) {
			t.Fatalf("%s: domain %d = %v, from zero %v", step, i, doms[i].Vals, wantDoms[i].Vals)
		}
	}
	if got, want := combosOf(t, legal), combosOf(t, wantLegal); !maps.Equal(got, want) {
		t.Fatalf("%s: %d legal combinations, from zero %d", step, len(got), len(want))
	}
}
