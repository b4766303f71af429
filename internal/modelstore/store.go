// Package modelstore implements the paper's central artifact: a catalog of
// harvested user models. Each captured model keeps its source-code formula
// ("we can store the models in their source code form inside the database",
// §3), the per-group fitted parameter table (the paper's Table 1), quality
// judgments (R², residual SE, F-test), and the table version at fit time so
// staleness — the §4.1 "data or model changes" challenge — is detectable.
// The store answers best-model selection among multiple overlapping models
// and drives refit/switch maintenance.
package modelstore

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"datalaws/internal/expr"
	"datalaws/internal/fit"
	"datalaws/internal/sql"
	"datalaws/internal/stats"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// Errors returned by the store.
var (
	ErrNotFound  = errors.New("modelstore: model not found")
	ErrDuplicate = errors.New("modelstore: model already exists")
	ErrNoModel   = errors.New("modelstore: no applicable model")
)

// GroupParams is one row of the parameter table: the fitted constants and
// goodness of fit for one group (one LOFAR source in the paper's example).
type GroupParams struct {
	Key        int64
	Params     []float64 // aligned with CapturedModel.Model.Params
	ResidualSE float64
	R2         float64
	N          int
	DF         int
	// Iters is the optimizer iteration count of the fit (0 for the direct
	// OLS path); warm-started refits should show markedly fewer iterations.
	Iters int
	// Retained is non-empty when a refit failed for this group and the
	// previous version's parameters were kept instead (it holds the refit
	// error). A live refit never loses answering coverage the old version
	// had: the old law, however stale, beats an empty result.
	Retained string
	// Cov is the parameter covariance for error bounds (may be nil when the
	// information matrix was singular).
	Cov [][]float64
	// FitErr records a per-group fitting failure; such groups stay
	// unmodeled and queries against them fall back to raw data.
	FitErr string
}

// OK reports whether the group fitted successfully.
func (g *GroupParams) OK() bool { return g.FitErr == "" }

// Quality aggregates fit quality across groups, the measures the engine
// uses to "judge the quality of the model" (§3).
type Quality struct {
	MedianR2         float64
	MeanR2           float64
	MedianResidualSE float64
	WorstR2          float64
	GroupsOK         int
	GroupsFailed     int
}

// Spec describes what to fit. It is the FIT MODEL statement itself, so the
// parser's output is the law's one in-memory form.
type Spec = sql.FitModelStmt

// CapturedModel is one harvested model with its trained parameters.
type CapturedModel struct {
	ID      int
	Spec    Spec
	Model   *fit.Model
	Groups  map[int64]*GroupParams
	Order   []int64 // group keys in ascending order
	Quality Quality

	// Fit-time snapshot for staleness detection.
	FittedRows int
	Version    int // bumped by every refit
}

// Grouped reports whether the model was fitted per group.
func (m *CapturedModel) Grouped() bool { return m.Spec.GroupBy != "" }

// GroupFor returns the parameters applicable to a group key. Ungrouped
// models store a single entry under key 0 and ignore the argument.
func (m *CapturedModel) GroupFor(key int64) (*GroupParams, bool) {
	if !m.Grouped() {
		g, ok := m.Groups[0]
		return g, ok && g.OK()
	}
	g, ok := m.Groups[key]
	if !ok || !g.OK() {
		return nil, false
	}
	return g, true
}

// ParamSizeBytes is the storage footprint of the parameter table: per group,
// the key plus one float64 per parameter plus the residual SE (the layout of
// the paper's Table 1, which it prices at 640 KB for 35,692 sources).
func (m *CapturedModel) ParamSizeBytes() int {
	perGroup := 8 + 8*len(m.Model.Params) + 8
	return perGroup * len(m.Groups)
}

// ParamTable materializes the parameter table as a relational table — the
// right-hand side of the paper's Table 1 transformation.
func (m *CapturedModel) ParamTable() (*table.Table, error) {
	defs := []table.ColumnDef{{Name: "group_key", Type: storage.TypeInt64}}
	for _, p := range m.Model.Params {
		defs = append(defs, table.ColumnDef{Name: p, Type: storage.TypeFloat64})
	}
	defs = append(defs,
		table.ColumnDef{Name: "residual_se", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "r2", Type: storage.TypeFloat64},
		table.ColumnDef{Name: "n", Type: storage.TypeInt64},
	)
	schema, err := table.NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	t := table.New(m.Spec.Name+"_params", schema)
	for _, key := range m.Order {
		g := m.Groups[key]
		if !g.OK() {
			continue
		}
		row := []expr.Value{expr.Int(g.Key)}
		for _, p := range g.Params {
			row = append(row, expr.Float(p))
		}
		row = append(row, expr.Float(g.ResidualSE), expr.Float(g.R2), expr.Int(int64(g.N)))
		if err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Staleness quantifies data drift since the model was fitted.
type Staleness struct {
	RowsAtFit   int
	RowsNow     int
	AddedRows   int
	GrowthFrac  float64
	NeverFitted bool
}

// StalenessAgainst computes drift relative to the current table state.
func (m *CapturedModel) StalenessAgainst(t *table.Table) Staleness {
	now := t.NumRows()
	s := Staleness{
		RowsAtFit: m.FittedRows,
		RowsNow:   now,
		AddedRows: now - m.FittedRows,
	}
	if m.FittedRows > 0 {
		s.GrowthFrac = float64(s.AddedRows) / float64(m.FittedRows)
	} else {
		s.NeverFitted = true
	}
	return s
}

// Store is the model catalog.
type Store struct {
	mu      sync.RWMutex
	models  map[string]*CapturedModel
	byTable map[string][]*CapturedModel
	nextID  int
	epoch   uint64 // bumped on every capture/refit/drop/load
	fitPar  int    // GroupedFit worker bound; 0 = GOMAXPROCS

	// Changefeed state (feed.go): term increases across Load boundaries,
	// seq within one incarnation; changeLog is the bounded entry ring and
	// notify wakes pollers on every publish.
	term      uint64
	seq       uint64
	changeLog []Change
	notify    chan struct{}
}

// NewStore returns an empty catalog.
func NewStore() *Store {
	return &Store{
		models:  map[string]*CapturedModel{},
		byTable: map[string][]*CapturedModel{},
		term:    1,
		notify:  make(chan struct{}),
	}
}

// Epoch returns a counter that increases whenever the model catalog changes
// (capture, refit swap, drop, load). Plan caches record the epoch a plan was
// compiled under and discard entries on mismatch, so cached plans never
// outlive the models they were planned against. The epoch is persisted by
// Save and restored as a floor by Load, so a reopened store's epochs are
// strictly greater than any value observed before the restart — cached keys
// can never alias across a restart.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// SetFitParallelism bounds the worker pool that fits groups during Capture
// and Refit (0 restores the GOMAXPROCS default, 1 fits serially).
// Background refits go through Refit, so the knob covers them too.
func (s *Store) SetFitParallelism(n int) {
	s.mu.Lock()
	s.fitPar = n
	s.mu.Unlock()
}

func (s *Store) fitParallelism() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fitPar
}

// Capture fits spec against t and stores the result — steps 2–3 of the
// paper's Figure 2 (the database "dutifully fits the model … at the same
// time, the database stores the model as well as its parameters for later
// use"). A model with the same name must not already exist; a partitioned
// family "name#..." occupies its base name too (DROP MODEL name drops the
// family, so letting an unrelated plain model share the base would make
// that drop destroy both).
func (s *Store) Capture(t *table.Table, spec Spec) (*CapturedModel, error) {
	if err := s.nameFree(spec.Name); err != nil {
		return nil, err
	}
	cm, err := fitSpec(t.Chunks(), spec, nil, s.fitParallelism())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.nameFreeLocked(spec.Name); err != nil {
		return nil, err
	}
	s.nextID++
	cm.ID = s.nextID
	cm.Version = 1
	s.models[spec.Name] = cm
	s.byTable[spec.Table] = append(s.byTable[spec.Table], cm)
	s.publishLocked(ChangeCapture, spec.Name, cm)
	return cm, nil
}

// Refit re-fits a stored model against the current table contents, bumping
// its version — the paper's response to "changing or added observations can
// change fit of the model dramatically". The optimizer warm-starts from the
// previous parameters group by group (recursive refitting), so groups whose
// law still holds converge almost immediately; RefitCold restarts from the
// spec's declared starting values instead, for laws that changed so much the
// old optimum misleads.
//
// Fitting runs entirely outside the store lock on a consistent table
// snapshot, so queries keep answering from the old version until the new one
// is swapped in atomically.
func (s *Store) Refit(name string, t *table.Table) (*CapturedModel, error) {
	return s.refit(name, t, true)
}

// RefitCold is Refit without warm-starting.
func (s *Store) RefitCold(name string, t *table.Table) (*CapturedModel, error) {
	return s.refit(name, t, false)
}

func (s *Store) refit(name string, t *table.Table, warm bool) (*CapturedModel, error) {
	s.mu.RLock()
	old, ok := s.models[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	var prev *CapturedModel
	if warm {
		prev = old
	}
	cm, err := fitSpec(t.Chunks(), old.Spec, prev, s.fitParallelism())
	if err != nil {
		return nil, err
	}
	if retainFailedGroups(cm, old) > 0 {
		cm.Quality = computeQuality(cm)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The model may have been refit concurrently; chain versions off
	// whatever is current so the swap is last-writer-wins but monotonic.
	// A different ID means the model was dropped and re-captured (possibly
	// with a different formula) while we were fitting — swapping our result
	// in would silently clobber the user's new model, so abort instead.
	cur, ok := s.models[name]
	if !ok || cur.ID != old.ID {
		return nil, fmt.Errorf("%w: %q (dropped or replaced during refit)", ErrNotFound, name)
	}
	cm.ID = cur.ID
	cm.Version = cur.Version + 1
	s.models[name] = cm
	tbl := s.byTable[old.Spec.Table]
	for i, m := range tbl {
		if m.ID == cur.ID {
			tbl[i] = cm
			break
		}
	}
	s.publishLocked(ChangeRefit, name, cm)
	return cm, nil
}

// Get returns a model by name.
func (s *Store) Get(name string) (*CapturedModel, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[name]
	return m, ok
}

// Drop removes a model by name.
func (s *Store) Drop(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[name]
	if !ok {
		return false
	}
	delete(s.models, name)
	tbl := s.byTable[m.Spec.Table]
	for i := range tbl {
		if tbl[i] == m {
			s.byTable[m.Spec.Table] = append(tbl[:i], tbl[i+1:]...)
			break
		}
	}
	s.publishLocked(ChangeDrop, name, nil)
	return true
}

// DropForTable removes every model fitted on tableName (DROP TABLE cascades
// to its captured models: their parameter tables describe data that no
// longer exists). It returns the dropped model names.
func (s *Store) DropForTable(tableName string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := make([]string, 0, len(s.byTable[tableName]))
	for _, m := range s.byTable[tableName] {
		delete(s.models, m.Spec.Name)
		dropped = append(dropped, m.Spec.Name)
	}
	if len(dropped) > 0 {
		delete(s.byTable, tableName)
		// One feed entry per model: a follower applies drops by name.
		for _, name := range dropped {
			s.publishLocked(ChangeDrop, name, nil)
		}
	}
	return dropped
}

// List returns all models sorted by name.
func (s *Store) List() []*CapturedModel {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*CapturedModel, 0, len(s.models))
	for _, m := range s.models {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// ForTable returns models fitted on a table, sorted by name.
func (s *Store) ForTable(tableName string) []*CapturedModel {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := append([]*CapturedModel(nil), s.byTable[tableName]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// SelectionPolicy is the one trust rule for choosing among multiple
// candidate models — the §4.1 "multiple, partial or grouped models"
// challenge. BestFor and the approximate planner both apply it through
// Choose.
type SelectionPolicy struct {
	// MinMedianR2 rejects models whose median group R² is below this bound.
	MinMedianR2 float64
	// MaxStalenessFrac rejects models whose table grew by more than this
	// fraction since the fit.
	MaxStalenessFrac float64
}

// DefaultPolicy accepts well-fitting (R² ≥ 0.8), mostly fresh (≤ 20 % new
// rows) models.
var DefaultPolicy = SelectionPolicy{MinMedianR2: 0.8, MaxStalenessFrac: 0.2}

// Choose returns the candidate the policy trusts most, or nil. It refuses
// models below the R² floor, models whose table t grew past the staleness
// cap (unchecked when t is nil), and models accept rejects; the rest rank
// by median R², ties going to the lower median residual SE.
func (pol SelectionPolicy) Choose(cands []*CapturedModel, t *table.Table, accept func(*CapturedModel) bool) *CapturedModel {
	var best *CapturedModel
	for _, m := range cands {
		if m.Quality.MedianR2 < pol.MinMedianR2 {
			continue
		}
		if t != nil && pol.MaxStalenessFrac > 0 && m.StalenessAgainst(t).GrowthFrac > pol.MaxStalenessFrac {
			continue
		}
		if !accept(m) {
			continue
		}
		if best == nil || m.Quality.MedianR2 > best.Quality.MedianR2 ||
			(m.Quality.MedianR2 == best.Quality.MedianR2 &&
				m.Quality.MedianResidualSE < best.Quality.MedianResidualSE) {
			best = m
		}
	}
	return best
}

// BestFor picks the stored model on tableName that predicts output and
// that pol trusts most.
func (s *Store) BestFor(tableName, output string, t *table.Table, pol SelectionPolicy) (*CapturedModel, error) {
	best := pol.Choose(s.ForTable(tableName), t, func(m *CapturedModel) bool { return m.Model.Output == output })
	if best == nil {
		return nil, fmt.Errorf("%w: table %q output %q", ErrNoModel, tableName, output)
	}
	return best, nil
}

// fitSpec fits one model spec against one view of its table, so a fit racing
// concurrent appends sees one consistent prefix and records exactly that
// view's version and row count for staleness tracking. The view is immutable:
// the extraction, the interpreted WHERE pass and the fit itself all run off
// the writer's path. When prev is non-nil the fit warm-starts from prev's
// fitted parameters group by group; parallelism bounds the per-group fitting
// workers (0 = GOMAXPROCS).
func fitSpec(v *table.ChunkView, spec Spec, prev *CapturedModel, parallelism int) (*CapturedModel, error) {
	model, err := fit.ParseModel(spec.Formula, spec.Inputs)
	if err != nil {
		return nil, err
	}

	needed := append([]string{model.Output}, model.Inputs...)
	group, floats, err := v.Numeric(spec.GroupBy, needed)
	if err != nil {
		return nil, err
	}
	cols := make(map[string][]float64, len(needed))
	for i, name := range needed {
		cols[name] = floats[i]
	}
	if spec.Where != nil {
		keep, err := filterMask(v, spec.Where)
		if err != nil {
			return nil, err
		}
		for name, vals := range cols {
			cols[name] = applyMask(vals, keep)
		}
		if group != nil {
			var g []int64
			for i, k := range keep {
				if k {
					g = append(g, group[i])
				}
			}
			group = g
		}
	}

	opts := &fit.NLSOptions{}
	if spec.Method == "gn" {
		opts.Method = fit.GaussNewton
	}

	var startFor func(int64) map[string]float64
	if prev != nil {
		startFor = warmStartFrom(prev, model)
	}

	cm := &CapturedModel{
		Spec:       spec,
		Model:      model,
		Groups:     map[int64]*GroupParams{},
		FittedRows: v.Rows(),
	}
	if spec.GroupBy == "" {
		start := spec.Start
		if startFor != nil {
			if s := startFor(0); s != nil {
				start = s
			}
		}
		res, err := model.Fit(cols, start, opts)
		if err != nil {
			return nil, err
		}
		cm.Groups[0] = groupFromResult(0, res)
		cm.Order = []int64{0}
	} else {
		gf := &fit.GroupedFit{Model: model, Start: spec.Start, StartFor: startFor, Opts: opts, Parallelism: parallelism}
		results, err := gf.Run(group, cols)
		if err != nil {
			return nil, err
		}
		for _, gr := range results {
			if gr.Err != nil {
				cm.Groups[gr.Key] = &GroupParams{Key: gr.Key, FitErr: gr.Err.Error()}
			} else {
				cm.Groups[gr.Key] = groupFromResult(gr.Key, gr.Res)
			}
			cm.Order = append(cm.Order, gr.Key)
		}
	}
	cm.Quality = computeQuality(cm)
	return cm, nil
}

// retainFailedGroups copies the previous version's parameters into groups
// whose refit failed (new or shrunk data can break convergence for
// individual groups), recording the refit error in Retained. Without this, a
// background refit could silently turn answerable point queries into empty
// results. It returns the number of groups retained.
func retainFailedGroups(cm, old *CapturedModel) int {
	n := 0
	for key, g := range cm.Groups {
		if g.OK() {
			continue
		}
		og, ok := old.GroupFor(key)
		if !ok {
			continue
		}
		kept := *og // old models are immutable after the swap; sharing slices is safe
		kept.Retained = g.FitErr
		cm.Groups[key] = &kept
		n++
	}
	return n
}

// warmStartFrom maps a group key to starting values taken from a previously
// fitted model, or nil (fall back to the spec's declared start) when the
// group was unfitted or the parameter set changed.
func warmStartFrom(prev *CapturedModel, model *fit.Model) func(int64) map[string]float64 {
	return func(key int64) map[string]float64 {
		g, ok := prev.GroupFor(key)
		if !ok || len(g.Params) != len(model.Params) {
			return nil
		}
		start := make(map[string]float64, len(model.Params))
		for j, p := range model.Params {
			v := g.Params[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil
			}
			start[p] = v
		}
		return start
	}
}

func groupFromResult(key int64, res *fit.Result) *GroupParams {
	g := &GroupParams{
		Key:        key,
		Params:     append([]float64(nil), res.Params...),
		ResidualSE: res.ResidualSE,
		R2:         res.R2,
		N:          res.N,
		DF:         res.DF,
		Iters:      res.Iterations,
	}
	if res.Cov != nil {
		p := len(res.Params)
		g.Cov = make([][]float64, p)
		for i := 0; i < p; i++ {
			g.Cov[i] = make([]float64, p)
			for j := 0; j < p; j++ {
				g.Cov[i][j] = res.Cov.At(i, j)
			}
		}
	}
	return g
}

func computeQuality(cm *CapturedModel) Quality {
	var r2s, ses []float64
	q := Quality{WorstR2: math.Inf(1)}
	for _, g := range cm.Groups {
		if !g.OK() {
			q.GroupsFailed++
			continue
		}
		q.GroupsOK++
		r2s = append(r2s, g.R2)
		ses = append(ses, g.ResidualSE)
		if g.R2 < q.WorstR2 {
			q.WorstR2 = g.R2
		}
	}
	if len(r2s) > 0 {
		q.MedianR2 = stats.Median(r2s)
		q.MeanR2 = stats.Mean(r2s)
		q.MedianResidualSE = stats.Median(ses)
	} else {
		q.WorstR2 = math.NaN()
	}
	return q
}

// filterMask evaluates the WHERE predicate over every row of the view,
// chunk by chunk, so only one decoded chunk is live at a time. It decodes
// only the columns the predicate names, and looks a value up only when the
// predicate reads it. A name that is not a column of the table is left
// unbound, so evaluating it fails as an unknown identifier.
func filterMask(v *table.ChunkView, where expr.Expr) ([]bool, error) {
	keep := make([]bool, 0, v.Rows())
	env := &chunkRowEnv{idx: []int{}}
	for _, name := range expr.Vars(where) {
		if i := v.Schema().Index(name); i >= 0 {
			env.names = append(env.names, name)
			env.idx = append(env.idx, i)
		}
	}
	for k := 0; k < v.NumChunks(); k++ {
		var err error
		if env.cols, err = v.Columns(k, env.idx); err != nil {
			return nil, err
		}
		for env.row = 0; env.row < v.ChunkLen(k); env.row++ {
			val, err := expr.Eval(where, env)
			if err != nil {
				return nil, err
			}
			ok := false
			if !val.IsNull() {
				if ok, err = val.AsBool(); err != nil {
					return nil, err
				}
			}
			keep = append(keep, ok)
		}
	}
	return keep, nil
}

// chunkRowEnv binds the named columns of one row of a decoded chunk.
type chunkRowEnv struct {
	names []string
	idx   []int // schema positions of names
	cols  []storage.Column
	row   int
}

// Lookup implements expr.Env.
func (e *chunkRowEnv) Lookup(name string) (expr.Value, bool) {
	for j, n := range e.names {
		if n == name {
			return e.cols[e.idx[j]].Value(e.row), true
		}
	}
	return expr.Value{}, false
}

func applyMask(vals []float64, keep []bool) []float64 {
	out := make([]float64, 0, len(vals))
	for i, v := range vals {
		if keep[i] {
			out = append(out, v)
		}
	}
	return out
}
