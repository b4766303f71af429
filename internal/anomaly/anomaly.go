// Package anomaly ranks data by disagreement with the captured model — the
// paper's §4.2 "data anomalies" opportunity: "the observations that do not
// fit the model are of supreme interest … these will stand out in the
// fitting process by for example showing large residual errors". Groups are
// scored by goodness of fit; individual rows by standardized residual.
package anomaly

import (
	"math"
	"sort"

	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

// GroupScore ranks one group (e.g. one radio source) by how poorly the
// model explains it.
type GroupScore struct {
	Key int64
	// Score is the ranking key: 1 − R², so a perfectly explained group
	// scores 0 and an unexplained one scores near 1 (or above, for fits
	// worse than the mean).
	Score      float64
	R2         float64
	ResidualSE float64
	// Failed marks groups whose fit did not converge at all; they rank
	// first — failure to fit is the strongest anomaly signal.
	Failed bool
}

// RankGroups orders all groups of a captured model from most to least
// anomalous.
func RankGroups(m *modelstore.CapturedModel) []GroupScore {
	out := make([]GroupScore, 0, len(m.Groups))
	for _, key := range m.Order {
		g := m.Groups[key]
		if !g.OK() {
			out = append(out, GroupScore{Key: key, Score: math.Inf(1), Failed: true})
			continue
		}
		out = append(out, GroupScore{
			Key:        key,
			Score:      1 - g.R2,
			R2:         g.R2,
			ResidualSE: g.ResidualSE,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// PrecisionRecallAtK evaluates a ranking against ground truth: of the top-k
// ranked keys, what fraction are true anomalies (precision), and what
// fraction of all true anomalies were found (recall).
func PrecisionRecallAtK(ranked []GroupScore, truth map[int64]bool, k int) (precision, recall float64) {
	if k > len(ranked) {
		k = len(ranked)
	}
	totalTrue := 0
	for _, v := range truth {
		if v {
			totalTrue++
		}
	}
	hit := 0
	for i := 0; i < k; i++ {
		if truth[ranked[i].Key] {
			hit++
		}
	}
	if k > 0 {
		precision = float64(hit) / float64(k)
	}
	if totalTrue > 0 {
		recall = float64(hit) / float64(totalTrue)
	}
	return precision, recall
}

// PointOutlier is one observation whose residual exceeds the threshold.
type PointOutlier struct {
	RowIndex int
	Group    int64
	Observed float64
	Expected float64
	// Z is the residual in units of the group's residual standard error.
	Z float64
}

// PointOutliers returns all rows of view v whose standardized residual
// magnitude exceeds zThreshold, ordered by |Z| descending.
func PointOutliers(v *table.ChunkView, m *modelstore.CapturedModel, zThreshold float64) ([]PointOutlier, error) {
	group, cols, err := v.Numeric(m.Spec.GroupBy, append([]string{m.Model.Output}, m.Model.Inputs...))
	if err != nil {
		return nil, err
	}
	observed, inputs := cols[0], cols[1:]
	var out []PointOutlier
	in := make([]float64, len(m.Model.Inputs))
	ev := m.Model.Evaluator()
	defer ev.Release()
	for r := range observed {
		var key int64
		if group != nil {
			key = group[r]
		}
		g, ok := m.GroupFor(key)
		if !ok || g.ResidualSE <= 0 {
			continue
		}
		for i := range inputs {
			in[i] = inputs[i][r]
		}
		pred := ev.Eval(g.Params, in)
		z := (observed[r] - pred) / g.ResidualSE
		if math.Abs(z) > zThreshold {
			out = append(out, PointOutlier{
				RowIndex: r, Group: key,
				Observed: observed[r], Expected: pred, Z: z,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return math.Abs(out[i].Z) > math.Abs(out[j].Z) })
	return out, nil
}
