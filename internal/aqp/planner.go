package aqp

import (
	"fmt"
	"strings"
	"sync"

	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
	"datalaws/internal/table"
)

// Options configures approximate planning.
type Options struct {
	// Policy filters which stored models are trusted.
	Policy modelstore.SelectionPolicy
	// Level is the confidence level for WITH ERROR bounds.
	Level float64
	// Cache keeps one domain state per table and model inputs across
	// queries, extended on append (nil rebuilds it on every bind).
	Cache *Cache
	// Parallelism is the worker budget of the lowered plan (0 = GOMAXPROCS,
	// 1 = one worker). Grouped model scans split across workers by
	// parameter-table ranges; one-group scans and ungrouped models are a
	// single morsel and run in the caller.
	Parallelism int
	// StaleInflate widens WITH ERROR bounds of a model that is stale but
	// still trusted (the table grew since the fit, within the policy's
	// staleness tolerance): the prediction SE is scaled by 1 + growth
	// fraction. Honest bounds for live data — the fit-time residual scale
	// understates uncertainty about rows it never saw.
	StaleInflate bool
	// FallbackExact makes the session layer answer an APPROX SELECT with the
	// exact plan when no trusted model covers it (ErrNoModel) instead of
	// failing — the safe default for live systems where a model may be
	// revoked by staleness at any time. Wired in the engine's session layer,
	// not here: BuildApproxSelect still reports ErrNoModel so callers can
	// distinguish the routes.
	FallbackExact bool
	// Inflate, when non-nil, supplies an extra per-model SE inflation floor
	// combined (by max) with the growth-based factor when StaleInflate is
	// on. Read replicas use it to widen bounds by the primary's measured
	// staleness plus replication lag — the local stub tables never grow, so
	// growth-based inflation alone would claim false freshness. The dynamic
	// type must be comparable: Options is compared with == to detect knob
	// changes.
	Inflate Inflator
}

// Inflator supplies a staleness inflation factor (≥ 1) for a model by name;
// values at or below 1 add nothing.
type Inflator interface {
	InflationFor(model string) float64
}

// DefaultOptions are sensible defaults: the default selection policy and
// 95 % intervals. Domains enumerate up to DefaultMaxDistinct values and the
// legal set is always exact and always applied; those are not options.
func DefaultOptions() Options {
	return Options{Policy: modelstore.DefaultPolicy, Level: 0.95}
}

// Plan is an approximate query plan with its provenance.
type Plan struct {
	Op    exec.Operator
	Model *modelstore.CapturedModel
	// Hybrid reports partial-coverage routing (model region ∪ raw rest).
	Hybrid bool
	// GridRows is the full model grid size before legality filtering.
	GridRows int
	// SEInflation is the staleness widening applied to WITH ERROR bounds
	// (1 when the model is fresh or StaleInflate is off).
	SEInflation float64
	// PartsTotal/PartsPruned report partition pruning on range-partitioned
	// tables: of PartsTotal partitions, PartsPruned were eliminated before
	// their models (or rows) were touched. Both are 0 for unpartitioned
	// tables.
	PartsTotal  int
	PartsPruned int
}

// BuildApproxSelect plans an APPROX SELECT: it picks the best applicable
// captured model for the queried table, replaces the raw scan with a
// ModelScan over the enumerated input grid (zero IO against the
// measurements), and reuses the exact relational pipeline on top. When the
// chosen model was fitted on a restricted subset (Spec.Where), the plan is
// hybrid: model tuples inside the region are concatenated with raw tuples
// outside it (§4.1 "multiple, partial or grouped models").
//
// It is the one-shot form of PrepareApproxSelect + Bind.
func BuildApproxSelect(cat *table.Catalog, store *modelstore.Store, st *sql.SelectStmt, opts Options) (*Plan, error) {
	p, err := PrepareApproxSelect(cat, store, st, opts)
	if err != nil {
		return nil, err
	}
	return p.Bind(st)
}

// Prepared is a rebindable approximate plan: model selection and the
// model's domains and legal set — the data-dependent parts of approximate
// planning — are resolved at prepare time, and each Bind only stamps out a
// fresh operator tree for one execution. Repeated zero-IO point lookups
// through a prepared statement therefore skip grid re-planning entirely.
// When the table grew, Bind takes the domains and legal set from
// Options.Cache, which extends them over the appended rows only; a refit
// re-selects the model and reuses them. A Prepared is safe for concurrent
// Bind calls.
type Prepared struct {
	cat       *table.Catalog
	store     *modelstore.Store
	opts      Options
	tableName string
	withError bool
	refs      map[string]bool

	// parted is set when the FROM table is range-partitioned; Bind then
	// routes through the per-partition planner (partition.go) instead of the
	// single-model path below.
	parted *table.PartitionedTable

	mu sync.Mutex
	// Plan-time artifacts, revalidated against table/model versions on every
	// Bind so appends and refits are picked up without a re-prepare.
	model        *modelstore.CapturedModel
	domains      []Domain
	legal        *ExactLegalSet
	tableVersion uint64
	modelVersion int
	applied      uint64 // Options.Cache's count of shipped increments (replicas)
}

// PrepareApproxSelect resolves the model, domains and legal set for an
// APPROX SELECT template. The statement may contain unbound parameters:
// model choice depends only on which columns are referenced, never on
// comparison values.
func PrepareApproxSelect(cat *table.Catalog, store *modelstore.Store, st *sql.SelectStmt, opts Options) (*Prepared, error) {
	if len(st.Joins) > 0 {
		return nil, fmt.Errorf("aqp: APPROX SELECT with JOIN is not supported; run the exact query")
	}
	p := &Prepared{
		cat:       cat,
		store:     store,
		opts:      opts,
		tableName: st.From,
		withError: st.WithError,
		refs:      queryColumnRefs(st),
	}
	if pt, ok := cat.GetPartitioned(st.From); ok {
		p.parted = pt
		// Partitioned plans resolve per partition at Bind (pruning depends on
		// the bound predicate values); prepare only proves some family member
		// can cover the referenced columns.
		if _, err := p.familyTemplate(); err != nil {
			return nil, err
		}
		return p, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.revalidateLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// revalidateLocked re-selects the model and refreshes domains and legal set
// when the underlying table or model store moved; it is a no-op when both
// versions still match. It returns the table it checked. Callers hold p.mu.
func (p *Prepared) revalidateLocked() (*table.Table, error) {
	t, err := p.cat.Lookup(p.tableName)
	if err != nil {
		return nil, fmt.Errorf("aqp: %w", err)
	}
	if p.model != nil && t.Version() == p.tableVersion && p.opts.Cache.appliedCount() == p.applied {
		if cur, ok := p.store.Get(p.model.Spec.Name); ok && cur == p.model && cur.Version == p.modelVersion {
			return t, nil
		}
	}
	return t, p.rebuildLocked(t)
}

// rebuildLocked selects the model and takes domains and legal set from one
// view of t, recording that view's version: the artifacts and the version
// they are trusted for describe the same rows, and a table that moved
// between revalidateLocked's check and this capture is simply read at the
// newer state. Callers hold p.mu.
func (p *Prepared) rebuildLocked(t *table.Table) error {
	model, err := chooseModel(p.store, p.tableName, p.tableName, t, p.refs, p.withError, p.opts.Policy)
	if err != nil {
		return err
	}
	applied := p.opts.Cache.appliedCount()
	domains, legal, version, err := p.opts.Cache.Get(t, model)
	if err != nil {
		return err
	}
	p.model, p.domains, p.legal, p.applied = model, domains, legal, applied
	p.tableVersion, p.modelVersion = version, model.Version
	return nil
}

// Inflation is the error-bound widening for model m answering from table t
// while stale: prediction SEs scale by 1 + growth fraction since the fit,
// or by opts.Inflate's factor when that is larger. A fresh model (or
// StaleInflate off) keeps factor 1. Every WITH ERROR interval, a
// statement's or a strawman point's, is widened by this one factor.
func Inflation(m *modelstore.CapturedModel, t *table.Table, opts Options) float64 {
	factor := 1.0
	if opts.StaleInflate {
		if st := m.StalenessAgainst(t); st.GrowthFrac > 0 {
			factor = 1 + st.GrowthFrac
		}
		if opts.Inflate != nil {
			if f := opts.Inflate.InflationFor(m.Spec.Name); f > factor {
				factor = f
			}
		}
	}
	return factor
}

// Bind instantiates one execution's operator tree from the prepared
// artifacts. st must be the (parameter-bound) statement the plan was
// prepared from: same FROM table, same referenced columns.
func (p *Prepared) Bind(st *sql.SelectStmt) (*Plan, error) {
	if p.parted != nil {
		return p.bindPartitioned(st)
	}
	p.mu.Lock()
	t, err := p.revalidateLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	model, domains, legal := p.model, p.domains, p.legal
	p.mu.Unlock()
	// The widening is read on every Bind, not kept with the artifacts: it
	// moves without the table, the model or the domain states moving, as a
	// replica's lag grows while its feed is down.
	inflate := Inflation(model, t, p.opts)

	// Point-lookup fast path: a bound statement that is exactly the
	// paper's first example query — plain projections, WHERE pinning the
	// group and every input to a constant — skips the scan pipeline
	// entirely and answers from the parameter table: one hash lookup and
	// one model evaluation.
	if op, ok := p.bindPointLookup(st, model, domains, legal, inflate); ok {
		return &Plan{Op: op, Model: model, GridRows: GridSize(domains) * model.Quality.GroupsOK, SEInflation: inflate}, nil
	}

	source, hybrid, err := p.modelSource(st, t, st.From, model, domains, legal, inflate)
	if err != nil {
		return nil, err
	}
	op, err := exec.BuildSelect(p.cat, st, source, p.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Plan{Op: op, Model: model, Hybrid: hybrid, GridRows: GridSize(domains) * model.Quality.GroupsOK, SEInflation: inflate}, nil
}

// modelSource builds the source an APPROX plan reads in place of t's rows
// (t is a partition child when tableName names its parent): a ModelScan
// over the model's grid. Point-lookup pushdown narrows it first: equality
// conjuncts on the group column or an input column narrow the enumerated
// grid before it is generated, so a bound `source = ? AND nu = ?` touches
// one parameter-table entry instead of the full grid. The original WHERE
// still runs above the scan, so pushdown is purely an enumeration
// restriction. A literal outside the enumerated domain (all values the
// table has ever held) proves the model side empty. A model fitted on a
// restricted region (Spec.Where) answers only inside it: the source is then
// the hybrid concat of model tuples inside the region and t's raw rows
// outside it, and hybrid reports that (§4.1 "partial models").
func (p *Prepared) modelSource(st *sql.SelectStmt, t *table.Table, tableName string, model *modelstore.CapturedModel, domains []Domain, legal *ExactLegalSet, inflate float64) (source exec.Node, hybrid bool, err error) {
	scan, err := NewModelScan(model, domains, legal)
	if err != nil {
		return nil, false, err
	}
	scan.WithError = st.WithError
	scan.Level = p.opts.Level
	scan.SEInflation = inflate
	scan.TableName = tableName

	source = scan
	if empty := pushDownEqualities(scan, st, model, domains); empty {
		source = &exec.ValuesScan{Cols: scan.Columns()}
	}
	if model.Spec.Where == nil {
		return source, false, nil
	}
	notWhere := &expr.Unary{Op: expr.OpNot, X: model.Spec.Where}
	return &exec.Concat{Children: []exec.Node{
		&exec.Filter{Child: source, Pred: model.Spec.Where},
		&exec.Filter{Child: rawProjection(t, tableName, model, st.WithError), Pred: notWhere},
	}}, true, nil
}

// pushDownEqualities narrows a model scan using top-level `col = literal`
// conjuncts of the statement's WHERE clause: an equality on the group
// column restricts the scan to that single group, and an equality on an
// input column collapses that domain to one value. It reports true when a
// literal falls outside the enumerated domain, proving the result empty
// (the unrestricted grid would never have contained it either).
func pushDownEqualities(scan *ModelScan, st *sql.SelectStmt, model *modelstore.CapturedModel, domains []Domain) (empty bool) {
	if st.Where == nil {
		return false
	}
	eqs := map[string]expr.Value{}
	if equalities(st.Where, st.From, eqs); len(eqs) == 0 {
		return false
	}
	if model.Grouped() {
		if v, ok := eqs[model.Spec.GroupBy]; ok {
			if key, ok := asGroupKey(v); ok {
				scan.Groups = []int64{key}
			}
		}
	}
	narrowed := domains
	for i, d := range domains {
		v, ok := eqs[d.Col]
		if !ok {
			continue
		}
		f, err := v.AsFloat()
		if err != nil {
			continue
		}
		if !domainContains(d, f) {
			return true
		}
		if len(d.Vals) == 1 {
			continue
		}
		if &narrowed[0] == &domains[0] {
			narrowed = append([]Domain(nil), domains...)
		}
		narrowed[i] = Domain{Col: d.Col, Vals: []float64{f}}
	}
	scan.Domains = narrowed
	return false
}

// equalities adds the `col = literal` (or `literal = col`) conjuncts of
// pred's top-level AND tree to eqs, keyed by unqualified column name, and
// reports whether pred is nothing else: every conjunct such an equality on
// the queried table (bare or qualified with tableName) and no column named
// twice. Identical duplicates stay in eqs; contradictory ones are dropped
// and left for the filter to resolve.
func equalities(pred expr.Expr, tableName string, eqs map[string]expr.Value) bool {
	b, ok := pred.(*expr.Binary)
	if !ok {
		return false
	}
	switch b.Op {
	case expr.OpAnd:
		left := equalities(b.L, tableName, eqs)
		return equalities(b.R, tableName, eqs) && left
	case expr.OpEq:
		id, lit := asIdentLit(b.L, b.R)
		if id == nil {
			id, lit = asIdentLit(b.R, b.L)
		}
		if id == nil {
			return false
		}
		name := unqualify(id.Name, tableName)
		if name == "" {
			return false
		}
		if prev, seen := eqs[name]; seen {
			if c, err := expr.Compare(prev, lit.Val); err != nil || c != 0 {
				delete(eqs, name)
			}
			return false
		}
		eqs[name] = lit.Val
		return true
	}
	return false
}

func asIdentLit(a, b expr.Expr) (*expr.Ident, *expr.Lit) {
	id, ok := a.(*expr.Ident)
	if !ok {
		return nil, nil
	}
	lit, ok := b.(*expr.Lit)
	if !ok || lit.Val.IsNull() {
		return nil, nil
	}
	return id, lit
}

// asGroupKey converts an equality literal to an integral group key.
func asGroupKey(v expr.Value) (int64, bool) {
	switch v.K {
	case expr.KindInt:
		return v.I, true
	case expr.KindFloat:
		if v.F == float64(int64(v.F)) {
			return int64(v.F), true
		}
	}
	return 0, false
}

func domainContains(d Domain, v float64) bool {
	for _, x := range d.Vals {
		if x == v {
			return true
		}
	}
	return false
}

// queryColumnRefs collects the identifiers a query references, with alias
// references removed (they resolve to projected expressions, not columns).
func queryColumnRefs(st *sql.SelectStmt) map[string]bool {
	aliases := map[string]bool{}
	for _, it := range st.Items {
		if it.Alias != "" {
			aliases[it.Alias] = true
		}
	}
	refs := map[string]bool{}
	add := func(e expr.Expr) {
		if e == nil {
			return
		}
		for _, v := range expr.Vars(e) {
			refs[v] = true
		}
	}
	for _, it := range st.Items {
		if !it.Star {
			add(it.Expr)
		}
	}
	add(st.Where)
	for _, g := range st.GroupBy {
		add(g)
	}
	add(st.Having)
	for _, k := range st.OrderBy {
		if id, ok := k.Expr.(*expr.Ident); ok && aliases[id.Name] {
			continue
		}
		add(k.Expr)
	}
	return refs
}

// chooseModel picks the best stored model whose generated columns cover the
// query's references. lookupName is the table the models were fitted on;
// qualName is the name query references qualify with — they differ only for
// partitions, whose models live on the child table while queries reference
// the parent.
func chooseModel(store *modelstore.Store, lookupName, qualName string, t *table.Table, refs map[string]bool, withError bool, pol modelstore.SelectionPolicy) (*modelstore.CapturedModel, error) {
	best := pol.Choose(store.ForTable(lookupName), t, func(m *modelstore.CapturedModel) bool {
		return covers(m, qualName, refs, withError)
	})
	if best == nil {
		return nil, fmt.Errorf("%w: no trusted model covers the referenced columns of %q", modelstore.ErrNoModel, lookupName)
	}
	return best, nil
}

func covers(m *modelstore.CapturedModel, tableName string, refs map[string]bool, withError bool) bool {
	avail := map[string]bool{}
	if m.Grouped() {
		avail[m.Spec.GroupBy] = true
	}
	for _, in := range m.Model.Inputs {
		avail[in] = true
	}
	avail[m.Model.Output] = true
	if withError {
		avail[m.Model.Output+"_lo"] = true
		avail[m.Model.Output+"_hi"] = true
	}
	for r := range refs {
		name := r
		if i := strings.LastIndexByte(r, '.'); i >= 0 {
			if r[:i] != tableName {
				return false
			}
			name = r[i+1:]
		}
		if !avail[name] {
			return false
		}
	}
	return true
}

// rawProjection shapes a raw table scan to the model scan's column list so
// the two sides of a hybrid plan concatenate. Raw rows are exact, so their
// error bounds collapse to the value itself. tableName qualifies the output
// columns (the parent name when t is a partition child).
func rawProjection(t *table.Table, tableName string, m *modelstore.CapturedModel, withError bool) exec.Node {
	scan := exec.NewTableScanAs(t, tableName)
	var exprs []expr.Expr
	var names []string
	addCol := func(col string) {
		exprs = append(exprs, &expr.Ident{Name: tableName + "." + col})
		names = append(names, tableName+"."+col)
	}
	if m.Grouped() {
		addCol(m.Spec.GroupBy)
	}
	for _, in := range m.Model.Inputs {
		addCol(in)
	}
	addCol(m.Model.Output)
	if withError {
		out := &expr.Ident{Name: tableName + "." + m.Model.Output}
		exprs = append(exprs, out, out)
		names = append(names,
			tableName+"."+m.Model.Output+"_lo",
			tableName+"."+m.Model.Output+"_hi")
	}
	return &exec.Project{Child: scan, Exprs: exprs, Names: names}
}
