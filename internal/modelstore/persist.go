package modelstore

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"datalaws/internal/expr"
	"datalaws/internal/fit"
	"datalaws/internal/table"
)

// The catalog persists as JSON: models travel in their source-code form
// (formula and WHERE predicate as text, §3: "we can store the models in
// their source code form inside the database") plus the numeric parameter
// tables; compiled evaluators and Jacobians are rebuilt on load. The same
// record type ships over the replication wire, which is why it is exported:
// a model delta is exactly a persisted model, minus the rows. Its spec
// fields alone are a law's one source form, which the WAL's FIT MODEL
// record carries too; SpecRecord and ParseSpec convert it to and from Spec,
// and internal/forms writes it in the one binary form the WAL and the wire
// share.

// GroupRecord is the serialized form of one GroupParams row.
type GroupRecord struct {
	Key        int64       `json:"key"`
	Params     []float64   `json:"params,omitempty"`
	ResidualSE float64     `json:"residual_se,omitempty"`
	R2         float64     `json:"r2,omitempty"`
	N          int         `json:"n,omitempty"`
	DF         int         `json:"df,omitempty"`
	Iters      int         `json:"iters,omitempty"`
	Retained   string      `json:"retained,omitempty"`
	Cov        [][]float64 `json:"cov,omitempty"`
	FitErr     string      `json:"fit_err,omitempty"`
}

// ModelRecord is the serialized form of one CapturedModel: the spec in
// source form (Name through Method) plus the fitted parameter table.
type ModelRecord struct {
	ID         int                `json:"id"`
	Name       string             `json:"name"`
	Table      string             `json:"table"`
	Formula    string             `json:"formula"`
	Inputs     []string           `json:"inputs"`
	GroupBy    string             `json:"group_by,omitempty"`
	WhereSrc   string             `json:"where,omitempty"`
	Start      map[string]float64 `json:"start,omitempty"`
	Method     string             `json:"method,omitempty"`
	Groups     []GroupRecord      `json:"groups"`
	FittedRows int                `json:"fitted_rows"`
	Version    int                `json:"version"`
}

// SpecRecord is a spec in source form: a ModelRecord with only its spec
// fields set.
func SpecRecord(spec Spec) ModelRecord {
	r := ModelRecord{
		Name: spec.Name, Table: spec.Table, Formula: spec.Formula, Inputs: spec.Inputs,
		GroupBy: spec.GroupBy, Start: spec.Start, Method: spec.Method,
	}
	if spec.Where != nil {
		r.WhereSrc = spec.Where.String()
	}
	return r
}

// ParseSpec rebuilds the spec from a record's spec fields, re-parsing the
// predicate source.
func (r *ModelRecord) ParseSpec() (Spec, error) {
	spec := Spec{
		Name: r.Name, Table: r.Table, Formula: r.Formula, Inputs: r.Inputs,
		GroupBy: r.GroupBy, Start: r.Start, Method: r.Method,
	}
	if r.WhereSrc != "" {
		w, err := expr.Parse(r.WhereSrc)
		if err != nil {
			return spec, fmt.Errorf("parsing where %q: %w", r.WhereSrc, err)
		}
		spec.Where = w
	}
	return spec, nil
}

type persistFile struct {
	FormatVersion int           `json:"format_version"`
	NextID        int           `json:"next_id"`
	Epoch         uint64        `json:"epoch,omitempty"`
	Term          uint64        `json:"term,omitempty"`
	Models        []ModelRecord `json:"models"`
}

// RecordOf serializes a captured model. Captured models are immutable after
// the store swap, so no lock is needed.
func RecordOf(m *CapturedModel) ModelRecord {
	r := SpecRecord(m.Spec)
	r.ID, r.FittedRows, r.Version = m.ID, m.FittedRows, m.Version
	for _, key := range m.Order {
		g := m.Groups[key]
		r.Groups = append(r.Groups, GroupRecord{
			Key: g.Key, Params: g.Params, ResidualSE: g.ResidualSE,
			R2: g.R2, N: g.N, DF: g.DF, Iters: g.Iters, Retained: g.Retained,
			Cov: g.Cov, FitErr: g.FitErr,
		})
	}
	return r
}

// ModelFromRecord rebuilds a captured model from its serialized form,
// re-parsing the formula and WHERE source and recomputing quality.
func ModelFromRecord(r ModelRecord) (*CapturedModel, error) {
	return rebuildModel(r)
}

// Save writes the catalog as JSON, including the feed position (epoch and
// term) so a reopened store resumes strictly past every pre-restart value.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pf := persistFile{FormatVersion: 1, NextID: s.nextID, Epoch: s.epoch, Term: s.term}
	for _, m := range s.models {
		pf.Models = append(pf.Models, RecordOf(m))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(pf)
}

// Load reads a catalog written by Save, rebuilding compiled models from
// their source formulas. It fails on duplicate names against the current
// contents.
//
// Load advances the store strictly past the persisted feed position: the
// epoch continues above max(current, persisted) — never resetting toward
// zero, so epoch-keyed plan caches cannot alias across a restart — and the
// term increments past max(current, persisted), invalidating every cursor
// issued by the previous incarnation (followers resync; WAL replay after
// Load republishes in the new term, so nothing is missed).
func (s *Store) Load(r io.Reader) error {
	var pf persistFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return fmt.Errorf("modelstore: decoding: %w", err)
	}
	if pf.FormatVersion != 1 {
		return fmt.Errorf("modelstore: unsupported format version %d", pf.FormatVersion)
	}
	loaded := make([]*CapturedModel, 0, len(pf.Models))
	for _, pm := range pf.Models {
		cm, err := rebuildModel(pm)
		if err != nil {
			return fmt.Errorf("modelstore: model %q: %w", pm.Name, err)
		}
		loaded = append(loaded, cm)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cm := range loaded {
		if _, exists := s.models[cm.Spec.Name]; exists {
			return fmt.Errorf("%w: %q", ErrDuplicate, cm.Spec.Name)
		}
	}
	if pf.NextID > s.nextID {
		s.nextID = pf.NextID
	}
	if pf.Epoch > s.epoch {
		s.epoch = pf.Epoch
	}
	s.epoch++
	if pf.Term > s.term {
		s.term = pf.Term
	}
	s.term++
	s.seq = 0
	s.changeLog = nil
	for _, cm := range loaded {
		s.installLocked(cm)
	}
	return nil
}

// rebuildModel is the one model-record decoder, behind both models.json
// and replica deltas. It refuses a record the engine could not serve: a
// fitted group whose parameters or covariance do not match the formula's
// parameter count, a group key listed twice, or negative counts.
func rebuildModel(pm ModelRecord) (*CapturedModel, error) {
	model, err := fit.ParseModel(pm.Formula, pm.Inputs)
	if err != nil {
		return nil, err
	}
	spec, err := pm.ParseSpec()
	if err != nil {
		return nil, err
	}
	cm := &CapturedModel{
		ID: pm.ID, Spec: spec, Model: model,
		Groups:     map[int64]*GroupParams{},
		FittedRows: pm.FittedRows,
		Version:    pm.Version,
	}
	p := len(model.Params)
	for _, pg := range pm.Groups {
		g := &GroupParams{
			Key:      pg.Key,
			Estimate: fit.Estimate{Params: pg.Params, Cov: pg.Cov, ResidualSE: pg.ResidualSE, DF: pg.DF},
			R2:       pg.R2, N: pg.N, Iters: pg.Iters, Retained: pg.Retained, FitErr: pg.FitErr,
		}
		if _, dup := cm.Groups[pg.Key]; dup {
			return nil, fmt.Errorf("group %d listed twice", pg.Key)
		}
		if g.N < 0 || g.DF < 0 {
			return nil, fmt.Errorf("group %d has negative counts (n=%d, df=%d)", pg.Key, g.N, g.DF)
		}
		if g.OK() {
			if len(g.Params) != p {
				return nil, fmt.Errorf("group %d has %d params, formula has %d", pg.Key, len(g.Params), p)
			}
			if g.Cov != nil && !square(g.Cov, p) {
				return nil, fmt.Errorf("group %d has a covariance that is not %d×%d", pg.Key, p, p)
			}
		}
		cm.Groups[pg.Key] = g
		cm.Order = append(cm.Order, pg.Key)
	}
	slices.Sort(cm.Order) // Order is ascending whatever order the record lists
	cm.Quality = computeQuality(cm)
	return cm, nil
}

// square reports whether m is n×n.
func square(m [][]float64, n int) bool {
	if len(m) != n {
		return false
	}
	for _, row := range m {
		if len(row) != n {
			return false
		}
	}
	return true
}

// SaveParamTableCSV exports a model's parameter table as CSV — the shape of
// the paper's Table 1 right-hand side, for downstream tools.
func SaveParamTableCSV(m *CapturedModel, w io.Writer) error {
	pt, err := m.ParamTable()
	if err != nil {
		return err
	}
	return table.WriteCSV(pt, w)
}
