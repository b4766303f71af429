package main

import (
	"errors"
	"math/rand"
	"testing"

	"datalaws/internal/expr"
)

// smallExactRef is a ten-row t(a, g, v) with v = a and two groups.
func smallExactRef() *exactRef {
	g, v := make([]int64, 10), make([]float64, 10)
	for i := range v {
		g[i], v[i] = int64(i%2), float64(i)
	}
	return newExactRef(g, v, []int64{7, 8}, 4)
}

func TestWrongAnswerIsCountedAsFailed(t *testing.T) {
	ref := smallExactRef()
	in := &instance{}
	c := &class{name: "range_agg"}
	op := ref.rangeAgg(rand.New(rand.NewSource(1)))
	lo, hi := op.args[0].(int64), op.args[1].(int64)
	avg := float64(lo+hi-1) / 2 // v = a, so the window's mean is its midpoint

	right := &answer{n: 1, rows: [][]expr.Value{{expr.Int(hi - lo), expr.Float(avg)}}}
	in.verify(c, op, right, nil)
	if in.attempted.Load() != 1 || in.failed.Load() != 0 {
		t.Fatalf("right answer: attempted %d failed %d", in.attempted.Load(), in.failed.Load())
	}
	for name, a := range map[string]*answer{
		"wrong value":     {n: 1, rows: [][]expr.Value{{expr.Int(hi - lo), expr.Float(avg + 1e-6)}}},
		"wrong row count": {n: 2, rows: [][]expr.Value{right.rows[0], right.rows[0]}},
		"exact fallback":  {n: 1, rows: right.rows, fallback: true},
	} {
		before := in.failed.Load()
		in.verify(c, op, a, nil)
		if in.failed.Load() != before+1 {
			t.Errorf("%s was not counted as failed", name)
		}
	}
	before := in.failed.Load()
	in.verify(c, op, right, errors.New("connection reset"))
	if in.failed.Load() != before+1 {
		t.Error("an error was not counted as failed")
	}
	if in.attempted.Load() != 5 {
		t.Errorf("attempted = %d, want 5", in.attempted.Load())
	}
	if f, _ := in.firstFail.Load().(string); f == "" {
		t.Error("the first failure was not recorded")
	}
}

func TestOracleClasses(t *testing.T) {
	ref := smallExactRef()
	rng := rand.New(rand.NewSource(2))
	// Group-by over all ten rows: g=0 holds 0,2,4,6,8 and g=1 holds 1,3,5,7,9.
	groups := &answer{n: 2, rows: [][]expr.Value{
		{expr.Int(1), expr.Int(5), expr.Float(5)},
		{expr.Int(0), expr.Int(5), expr.Float(4)},
	}}
	if !ref.groupBy(rng).check(groups) {
		t.Error("correct group-by rejected")
	}
	groups.rows[1][2] = expr.Float(4.5)
	if ref.groupBy(rng).check(groups) {
		t.Error("wrong group average accepted")
	}
	// Top-k over a window of 4 with v = a: the window's rows, descending.
	op := ref.topK(rng)
	lo, hi := op.args[0].(int64), op.args[1].(int64)
	top := &answer{}
	for a := hi - 1; a >= lo; a-- {
		top.rows = append(top.rows, []expr.Value{expr.Int(a), expr.Float(float64(a))})
		top.n++
	}
	if !op.check(top) {
		t.Error("correct top-k rejected")
	}
	top.rows[0], top.rows[1] = top.rows[1], top.rows[0]
	if op.check(top) {
		t.Error("misordered top-k accepted")
	}
	// Join: w = 7 for g = 0 and 8 for g = 1.
	op = ref.join(rng)
	lo, hi = op.args[0].(int64), op.args[1].(int64)
	want := map[int64][2]float64{}
	for a := lo; a < hi; a++ {
		w := int64(7 + a%2)
		want[w] = [2]float64{want[w][0] + 1, want[w][1] + float64(a)}
	}
	joined := &answer{}
	for w, agg := range want {
		joined.rows = append(joined.rows, []expr.Value{expr.Int(w), expr.Int(int64(agg[0])), expr.Float(agg[1] / agg[0])})
		joined.n++
	}
	if !op.check(joined) {
		t.Error("correct join rejected")
	}
	joined.rows[0][1] = expr.Int(joined.rows[0][1].I + 1)
	if op.check(joined) {
		t.Error("wrong join count accepted")
	}
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {100000, 99, true},
	} {
		got, ok := supportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	m := map[string]metric{}
	addTail(m, make([]float64, 12))
	if m["tail_pct"].Value != 50 {
		t.Errorf("a 12-sample tail was reported as p%v", m["tail_pct"].Value)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(sorted(xs), 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdictMarksNoisyPairsUnresolved(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if _, _, _, w := verdict(steady, steady, "lower", 0.1); w != "ok" {
		t.Errorf("steady vs steady = %s", w)
	}
	if _, _, _, w := verdict(steady, slower, "lower", 0.1); w != "REGRESSED" {
		t.Errorf("a 20%% slowdown = %s", w)
	}
	if _, _, _, w := verdict(steady, slower, "higher", 0.1); w != "ok" {
		t.Errorf("a 20%% rise of a higher-is-better metric = %s", w)
	}
	if _, _, _, w := verdict(steady, noisy, "lower", 0.1); w != "unresolved" {
		t.Errorf("a pair noisier than its bound = %s", w)
	}
}
