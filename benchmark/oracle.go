package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/synth"
)

// The oracle holds naive references built in set-up from the generated
// inputs, never from the engine's own answers: plain slices, prefix sums,
// one map, one selection loop. Every answer of every run is checked
// against them, so a change that makes the system faster by making it
// wrong shows as failed operations, never as a gain.

// relTol is the relative disagreement allowed between an engine float and
// the reference; both sum the same doubles in different orders.
const relTol = 1e-9

func close2(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

func isInt(v expr.Value, want int64) bool     { return v.K == expr.KindInt && v.I == want }
func isFloat(v expr.Value, want float64) bool { return v.K == expr.KindFloat && close2(v.F, want) }

// exactRef is the reference for t(a, g, v) with a = row index, and
// dim(g, w).
type exactRef struct {
	g      []int64
	v      []float64
	w      []int64   // by g
	prefix []float64 // prefix[i] = v[0] + … + v[i-1]
	groups map[int64][2]float64
	window int
}

func newExactRef(g []int64, v []float64, w []int64, window int) *exactRef {
	r := &exactRef{g: g, v: v, w: w, window: window,
		prefix: make([]float64, len(v)+1), groups: map[int64][2]float64{}}
	for i, x := range v {
		r.prefix[i+1] = r.prefix[i] + x
		agg := r.groups[g[i]]
		r.groups[g[i]] = [2]float64{agg[0] + 1, agg[1] + x}
	}
	return r
}

// windowArgs draws a window of r.window consecutive rows.
func (r *exactRef) windowArgs(rng *rand.Rand) (lo, hi int64) {
	lo = rng.Int63n(int64(len(r.v) - r.window + 1))
	return lo, lo + int64(r.window)
}

func (r *exactRef) point(rng *rand.Rand) operation {
	a := rng.Int63n(int64(len(r.v)))
	return operation{[]any{a}, func(ans *answer) bool {
		return ans.n == 1 && isFloat(ans.rows[0][0], r.v[a])
	}}
}

func (r *exactRef) rangeAgg(rng *rand.Rand) operation {
	lo, hi := r.windowArgs(rng)
	return operation{[]any{lo, hi}, func(ans *answer) bool {
		return ans.n == 1 && isInt(ans.rows[0][0], hi-lo) &&
			isFloat(ans.rows[0][1], (r.prefix[hi]-r.prefix[lo])/float64(hi-lo))
	}}
}

func (r *exactRef) groupBy(*rand.Rand) operation {
	return operation{nil, func(ans *answer) bool {
		return checkGroups(ans, r.groups)
	}}
}

// checkGroups compares (key, count, avg) rows with a key → (count, sum) map.
func checkGroups(ans *answer, want map[int64][2]float64) bool {
	if ans.n != len(want) {
		return false
	}
	seen := make(map[int64]bool, len(want))
	for _, row := range ans.rows {
		agg, ok := want[row[0].I]
		if !ok || seen[row[0].I] || row[0].K != expr.KindInt ||
			!isInt(row[1], int64(agg[0])) || !isFloat(row[2], agg[1]/agg[0]) {
			return false
		}
		seen[row[0].I] = true
	}
	return true
}

func (r *exactRef) topK(rng *rand.Rand) operation {
	lo, hi := r.windowArgs(rng)
	return operation{[]any{lo, hi}, func(ans *answer) bool {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, int(i))
		}
		sort.Slice(idx, func(i, j int) bool { return r.v[idx[i]] > r.v[idx[j]] })
		k := 10
		if len(idx) < k {
			k = len(idx)
		}
		if ans.n != k {
			return false
		}
		for i := 0; i < k; i++ {
			// Equal values may come back in either order; the value
			// sequence is what ORDER BY v fixes.
			row := ans.rows[i]
			if row[0].K != expr.KindInt || row[0].I < lo || row[0].I >= hi ||
				r.v[row[0].I] != row[1].F || !isFloat(row[1], r.v[idx[i]]) {
				return false
			}
		}
		return true
	}}
}

func (r *exactRef) join(rng *rand.Rand) operation {
	lo, hi := r.windowArgs(rng)
	return operation{[]any{lo, hi}, func(ans *answer) bool {
		want := map[int64][2]float64{}
		for i := lo; i < hi; i++ {
			w := r.w[r.g[i]]
			agg := want[w]
			want[w] = [2]float64{agg[0] + 1, agg[1] + r.v[i]}
		}
		return checkGroups(ans, want)
	}}
}

// streamRef is the reference for a full drain of big(a, b): the row count
// and both column sums.
type streamRef struct {
	rows       int
	sumA, sumB float64
}

func (r *streamRef) drain(*rand.Rand) operation {
	return operation{nil, func(ans *answer) bool {
		return ans.n == r.rows && len(ans.sums) == 2 && close2(ans.sums[0], r.sumA) && close2(ans.sums[1], r.sumB)
	}}
}

// ingestRef counts what the server acknowledged; the final state must hold
// exactly that.
type ingestRef struct {
	batch int
	next  atomic.Int64 // next unused value of column a
	acked atomic.Int64 // rows acknowledged
	sumA  atomic.Int64 // sum of a over acknowledged rows
}

// insertSQL is the prepared multi-row INSERT for a table of cols columns.
func insertSQL(tableName string, cols, rows int) string {
	one := "(?" + strings.Repeat(",?", cols-1) + ")"
	return "INSERT INTO " + tableName + " VALUES " + one + strings.Repeat(","+one, rows-1)
}

// batchOp draws one batch of t(a, g, v) rows with fresh a values.
func (r *ingestRef) batchOp(rng *rand.Rand) operation {
	first := r.next.Add(int64(r.batch)) - int64(r.batch)
	args := make([]any, 0, 3*r.batch)
	var sum int64
	for i := 0; i < r.batch; i++ {
		a := first + int64(i)
		sum += a
		args = append(args, a, rng.Int63n(1000), 10+rng.NormFloat64())
	}
	want := fmt.Sprintf("%d rows inserted", r.batch)
	return operation{args, func(ans *answer) bool {
		if ans.info != want {
			return false
		}
		r.acked.Add(int64(r.batch))
		r.sumA.Add(sum)
		return true
	}}
}

// lawRef is the reference for APPROX point answers over LOFAR data. The
// expected value is the captured law evaluated naively from the parameter
// table of the model version that answered; the synth ground truth bounds
// how far any version may stray, and a held-out observation drawn from the
// truth measures whether WITH ERROR intervals cover.
type lawRef struct {
	truth  map[int64]synth.SourceTruth
	noise  float64
	nSrc   int
	models func() *modelstore.CapturedModel

	mu       sync.Mutex
	versions map[int]*modelstore.CapturedModel

	intervals atomic.Int64
	covered   atomic.Int64
	unpinned  atomic.Int64 // answers from a version no longer retrievable
}

// lawTol bounds |fitted − true| / true for any trusted version: a law
// fitted to ≥ 30 observations at 3 % noise lands within a few percent.
const lawTol = 0.25

// remember keeps a model version's parameter table for later checks.
func (r *lawRef) remember(m *modelstore.CapturedModel) {
	if m == nil {
		return
	}
	r.mu.Lock()
	if r.versions == nil {
		r.versions = map[int]*modelstore.CapturedModel{}
	}
	r.versions[m.Version] = m
	r.mu.Unlock()
}

// version returns the parameter table of model version v: the current
// one, or one remembered when a refit installed it.
func (r *lawRef) version(v int) *modelstore.CapturedModel {
	if cur := r.models(); cur != nil && cur.Version == v {
		return cur
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.versions[v]
}

func (r *lawRef) point(rng *rand.Rand) operation {
	src := 1 + rng.Int63n(int64(r.nSrc))
	nu := synth.Bands[rng.Intn(len(synth.Bands))]
	held := r.truth[src].P * math.Pow(nu, r.truth[src].Alpha) * (1 + r.noise*rng.NormFloat64())
	return operation{[]any{src, nu}, func(ans *answer) bool {
		return r.checkPoint(ans, src, nu, held)
	}}
}

func (r *lawRef) checkPoint(ans *answer, src int64, nu, held float64) bool {
	if ans.n != 1 || len(ans.rows[0]) != 3 {
		return false
	}
	v, lo, hi := ans.rows[0][0].F, ans.rows[0][1].F, ans.rows[0][2].F
	tr := r.truth[src]
	law := tr.P * math.Pow(nu, tr.Alpha)
	if !(lo <= v && v <= hi) || math.Abs(v-law) > lawTol*law {
		return false
	}
	r.intervals.Add(1)
	if lo <= held && held <= hi {
		r.covered.Add(1)
	}
	m := r.version(ans.version)
	if m == nil {
		// A refit replaced the answering version before the harness could
		// read it; the truth check above is all that remains.
		r.unpinned.Add(1)
		return true
	}
	g, ok := m.GroupFor(src)
	if !ok || !g.OK() {
		return false
	}
	// Params are sorted by name: alpha, p.
	return close2(v, g.Params[1]*math.Pow(nu, g.Params[0]))
}

// coverage is the share of checked intervals that held the held-out
// observation.
func (r *lawRef) coverage() float64 {
	if n := r.intervals.Load(); n > 0 {
		return float64(r.covered.Load()) / float64(n)
	}
	return 0
}

// sourceRef is the reference for range aggregates over whole sources of
// the seeded LOFAR rows, which are generated in ascending source order.
type sourceRef struct {
	first  []int     // first[s] = index of source s's first row; first[nSrc+1] = rows
	prefix []float64 // prefix sums of intensity
	maxSrc int64     // windows stay within sources 1..maxSrc
	span   int64
}

func newSourceRef(d *synth.LOFARData, nSrc int, maxSrc, span int64) *sourceRef {
	r := &sourceRef{first: make([]int, nSrc+2), prefix: make([]float64, d.NumRows()+1), maxSrc: maxSrc, span: span}
	for i, s := range d.Source {
		r.prefix[i+1] = r.prefix[i] + d.Intensity[i]
		if i == 0 || d.Source[i-1] != s {
			r.first[s] = i
		}
	}
	r.first[nSrc+1] = d.NumRows()
	return r
}

func (r *sourceRef) rangeAgg(rng *rand.Rand) operation {
	lo := 1 + rng.Int63n(r.maxSrc-r.span+1)
	hi := lo + r.span
	return operation{[]any{lo, hi}, func(ans *answer) bool {
		i, j := r.first[lo], r.first[hi]
		return ans.n == 1 && isInt(ans.rows[0][0], int64(j-i)) &&
			isFloat(ans.rows[0][1], (r.prefix[j]-r.prefix[i])/float64(j-i))
	}}
}
