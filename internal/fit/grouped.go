package fit

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
)

// GroupResult pairs one group key with its fit outcome. Err is non-nil when
// the group's fit failed (too few observations, no convergence, …); the
// paper's workflow surfaces those groups rather than silently dropping them,
// since badly fitting groups are exactly the "data anomalies" of §4.2.
type GroupResult struct {
	Key int64
	Res *Result
	Err error
}

// GroupedFit fits one model instance per group — the paper's Table 1
// workflow, where a single power-law model fitted per LOFAR source yields a
// 35,692-row parameter table. group must parallel the data columns.
//
// Groups are fitted concurrently across Parallelism workers (default:
// GOMAXPROCS). Results are returned sorted by key.
type GroupedFit struct {
	Model *Model
	// Start provides per-parameter starting values for nonlinear fits.
	Start map[string]float64
	// StartFor, when non-nil, supplies per-group starting values and takes
	// precedence over Start for groups where it returns a non-nil map. A
	// refit warm-starts each group from its previously fitted parameters
	// through this hook (recursive refitting: seed the optimizer where the
	// law last held, so unchanged groups converge in one or two steps).
	StartFor func(key int64) map[string]float64
	// Opts configures the nonlinear optimizer.
	Opts *NLSOptions
	// Parallelism bounds worker goroutines; 0 selects GOMAXPROCS.
	Parallelism int
}

// Run executes the grouped fit over columnar data keyed by group. One
// counting-sort scatter lays every group's rows out contiguously, in input
// order; each worker then fits its groups column by column (see Model.Fit).
func (g *GroupedFit) Run(group []int64, data map[string][]float64) ([]GroupResult, error) {
	m := g.Model
	y, inputs, err := m.columns(data)
	if err != nil {
		return nil, err
	}
	if len(group) != len(y) {
		return nil, fmt.Errorf("%w: group column has %d rows, want %d", ErrBadInput, len(group), len(y))
	}
	keys, offs, cols := scatter(group, append(inputs, y))
	ys := cols[len(inputs)]

	minObs := len(m.Params) + 1 // fewer rows leave no residual degree of freedom
	workers := g.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) && len(keys) > 0 {
		workers = len(keys)
	}
	fitters := make([]*Evaluator, workers)
	for w := range fitters {
		if fitters[w], err = m.newEvaluator(); err != nil {
			return nil, err
		}
	}
	o := g.Opts.value()

	results := make([]GroupResult, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for _, c := range fitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			groupIn := make([][]float64, len(inputs))
			for idx := range next {
				key := keys[idx]
				lo, hi := offs[idx], offs[idx+1]
				if hi-lo < minObs {
					results[idx] = GroupResult{Key: key, Err: fmt.Errorf("%w: group %d has %d rows, need %d", ErrTooFewObservations, key, hi-lo, minObs)}
					continue
				}
				for k := range groupIn {
					groupIn[k] = cols[k][lo:hi]
				}
				start := g.Start
				if g.StartFor != nil {
					if s := g.StartFor(key); s != nil {
						start = s
					}
				}
				res, err := c.fit(groupIn, ys[lo:hi], start, o)
				results[idx] = GroupResult{Key: key, Res: res, Err: err}
			}
		}()
	}
	for idx := range keys {
		next <- idx
	}
	close(next)
	wg.Wait()
	return results, nil
}

// scatter partitions rows by group key with one counting sort. keys are the
// distinct keys in ascending order; group g's rows of every column land
// contiguously in out[c][offs[g]:offs[g+1]], in input order.
func scatter(group []int64, cols [][]float64) (keys []int64, offs []int, out [][]float64) {
	at := make(map[int64]int) // a group's size, then its next free slot
	for _, k := range group {
		at[k]++
	}
	keys = slices.Sorted(maps.Keys(at))
	offs = make([]int, len(keys)+1)
	for g, k := range keys {
		offs[g+1] = offs[g] + at[k]
		at[k] = offs[g]
	}
	out = make([][]float64, len(cols))
	for c := range out {
		out[c] = make([]float64, len(group))
	}
	for i, k := range group {
		r := at[k]
		at[k]++
		for c, col := range cols {
			out[c][r] = col[i]
		}
	}
	return keys, offs, out
}
