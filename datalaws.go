// Package datalaws is a proof-of-principle implementation of "Capturing the
// Laws of (Data) Nature" (Mühleisen, Kersten, Manegold — CIDR 2015): a
// relational engine that harvests the statistical models users fit to its
// data and re-uses them for approximate query answering and model-based
// storage optimization.
//
// The Engine bundles a columnar catalog, a SQL executor, and the captured
// model store. Models enter the system either through the FIT MODEL SQL
// extension or transparently through a capture.Strawman session (the
// paper's Figure 2 workflow); APPROX SELECT then answers queries from the
// model parameter tables without scanning the measurements, optionally
// annotated WITH ERROR bounds.
//
// The primary query surface is session-oriented, shaped like database/sql:
// Query streams rows through a cursor and honors context cancellation, and
// Prepare compiles a statement — parse, plan, and (for APPROX SELECT) the
// zero-IO grid artifacts — once, so executions only bind `?` parameters:
//
//	eng := datalaws.NewEngine()
//	eng.MustExec(`CREATE TABLE m (source BIGINT, nu DOUBLE, intensity DOUBLE)`)
//	...load data...
//	eng.MustExec(`FIT MODEL spectra ON m AS 'intensity ~ p * pow(nu, alpha)'
//	              INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`)
//
//	stmt, _ := eng.Prepare(`APPROX SELECT intensity, intensity_lo, intensity_hi
//	                        FROM m WHERE source = ? AND nu = ? WITH ERROR`)
//	rows, _ := stmt.Query(ctx, 42, 0.14)
//	defer rows.Close()
//	for rows.Next() {
//		var intensity, lo, hi float64
//		_ = rows.Scan(&intensity, &lo, &hi)
//	}
//	if rows.Err() != nil { ... }
//
// Unprepared traffic goes through the same machinery: Query consults an LRU
// of compiled plans keyed by SQL text, and Exec/MustExec are thin
// materializing wrappers kept for convenience and compatibility.
package datalaws

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"datalaws/internal/aqp"
	"datalaws/internal/capture"
	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/refit"
	"datalaws/internal/sql"
	"datalaws/internal/stats"
	"datalaws/internal/table"
	"datalaws/internal/wal"
)

// Sentinel errors, testable with errors.Is across every layer that wraps
// them.
var (
	// ErrUnknownTable marks references to tables absent from the catalog.
	ErrUnknownTable = table.ErrUnknownTable
	// ErrUnknownModel marks references to models absent from the store.
	ErrUnknownModel = modelstore.ErrNotFound
	// ErrNoModel marks APPROX queries no trusted captured model can answer
	// (none fitted, none covering the referenced columns, or all revoked by
	// the staleness policy). With AQP.FallbackExact set, the session layer
	// answers such queries exactly instead of surfacing this error.
	ErrNoModel = modelstore.ErrNoModel
)

// Engine is the top-level database handle. One Engine serves any number of
// concurrent sessions: the catalog, model store, plan cache and approximate
// planning caches are internally synchronized, and every Query/Exec builds
// its own operator state.
type Engine struct {
	// Catalog holds the relational tables.
	Catalog *table.Catalog
	// Models is the captured model store.
	Models *modelstore.Store
	// AQP configures the approximate query path.
	AQP aqp.Options
	// Parallelism bounds the morsel-driven worker pool for exact query
	// pipelines: 0 selects GOMAXPROCS, 1 forces the serial pipeline.
	// Approximate queries follow AQP.Parallelism; SetParallelism points
	// every knob (including model fitting) at one value.
	Parallelism int

	// plans memoizes compiled statements for unprepared Query/Exec traffic.
	plans *planCache

	// knobMu guards the execution knobs (Parallelism, AQP) against
	// SetParallelism racing queries on other sessions; per-query reads go
	// through parallelism/aqpOptions. Sessions that assign the
	// exported fields directly should do so before serving traffic.
	knobMu sync.RWMutex
	// replica marks a model-only read replica (SetReplica): mutations and
	// exact SELECTs are rejected, APPROX never falls back. Guarded by
	// knobMu with the rest of the knobs.
	replica bool

	// refitter is the optional background maintenance loop (EnableAutoRefit);
	// guarded by refitMu so ingestion can read it from any session.
	refitMu  sync.Mutex
	refitter *refit.Refitter

	// walMu orders mutations against checkpoints: every mutation holds it
	// shared across its log-then-apply window, and SaveDir holds it
	// exclusively, so a snapshot can never capture an in-memory effect whose
	// WAL record postdates the checkpoint's log rotation (which would
	// double-apply on recovery). walLog is nil on non-durable engines.
	walMu  sync.RWMutex
	walLog *wal.Log
	walDir string
}

// NewEngine returns an empty engine with default approximate-query options.
func NewEngine() *Engine {
	opts := aqp.DefaultOptions()
	opts.Cache = aqp.NewCache()
	return &Engine{
		Catalog: table.NewCatalog(),
		Models:  modelstore.NewStore(),
		AQP:     opts,
		plans:   newPlanCache(0),
	}
}

// Result is the materialized outcome of one statement.
type Result struct {
	// Columns and Rows are set for queries.
	Columns []string
	Rows    []exec.Row
	// Info carries a human-readable summary for DDL/utility statements.
	Info string
	// Model names the captured model an approximate plan used ("" for exact
	// plans); ModelVersion is its refit generation; ApproxGrid is the model
	// grid size before legality filtering; SEInflation is the staleness
	// widening applied to WITH ERROR bounds; ExactFallback marks an APPROX
	// SELECT answered exactly because no trusted model covered it.
	Model         string
	ModelVersion  int
	ApproxGrid    int
	Hybrid        bool
	SEInflation   float64
	ExactFallback bool
	// Partitions/PartitionsPruned report range-partition pruning for
	// approximate plans (0/0 on unpartitioned tables and exact plans).
	Partitions       int
	PartitionsPruned int
}

// Exec parses and executes one SQL statement, materializing the full
// result. It is a convenience wrapper over the session API — equivalent to
// ExecContext with a background context — kept as the compatibility entry
// point; prefer Query for streaming access and cancellation.
func (e *Engine) Exec(src string) (*Result, error) {
	return e.ExecContext(context.Background(), src)
}

// MustExec is Exec that panics on error; for examples and tests.
func (e *Engine) MustExec(src string) *Result {
	r, err := e.Exec(src)
	if err != nil {
		panic(err)
	}
	return r
}

// execStmt runs a non-SELECT statement eagerly. SELECT goes through the
// streaming session path in session.go instead.
func (e *Engine) execStmt(st sql.Stmt) (*Result, error) {
	switch s := st.(type) {
	case *sql.CreateTableStmt:
		return e.execCreate(s)
	case *sql.DropTableStmt:
		return e.execDropTable(s)
	case *sql.InsertStmt:
		return e.execInsert(s)
	case *sql.FitModelStmt:
		return e.execFit(s)
	case *sql.ShowModelsStmt:
		return e.execShowModels()
	case *sql.DropModelStmt:
		if _, ok := e.Models.Get(s.Name); !ok && len(e.Models.Family(s.Name)) == 0 {
			return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownModel, s.Name)
		}
		return e.mutate(&wal.Record{Type: wal.TypeDropModel, Name: s.Name}, func() (*Result, error) {
			return e.applyDropModel(s.Name)
		})
	case *sql.RefitModelStmt:
		return e.execRefit(s)
	case *sql.ExplainStmt:
		return e.execExplain(s)
	}
	return nil, fmt.Errorf("datalaws: unsupported statement %T", st)
}

func (e *Engine) applyDropModel(name string) (*Result, error) {
	dropped := e.Models.DropFamily(name)
	if len(dropped) == 0 {
		return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownModel, name)
	}
	for _, mn := range dropped {
		if r := e.AutoRefit(); r != nil {
			r.Reset(mn)
		}
	}
	if len(dropped) == 1 && dropped[0] == name {
		return &Result{Info: fmt.Sprintf("model %s dropped", name)}, nil
	}
	return &Result{Info: fmt.Sprintf("model %s dropped (%d per-partition model(s))", name, len(dropped))}, nil
}

func (e *Engine) execCreate(s *sql.CreateTableStmt) (*Result, error) {
	// A schema that cannot be built is refused before it reaches the log.
	if _, err := table.NewSchema(s.Cols...); err != nil {
		return nil, err
	}
	return e.mutate(&wal.Record{Type: wal.TypeCreateTable, Decl: &s.Decl}, func() (*Result, error) {
		return e.applyCreate(s.Decl)
	})
}

func (e *Engine) applyCreate(d table.Decl) (*Result, error) {
	if err := e.Catalog.Declare(d); err != nil {
		return nil, err
	}
	if d.PartCol != "" {
		return &Result{Info: fmt.Sprintf("table %s created (%d partitions by range(%s))",
			d.Name, len(d.Parts), d.PartCol)}, nil
	}
	return &Result{Info: fmt.Sprintf("table %s created", d.Name)}, nil
}

func (e *Engine) execDropTable(s *sql.DropTableStmt) (*Result, error) {
	// Existence is checked before logging so an unknown name does not leave
	// a junk record in the WAL.
	if _, ok := e.Catalog.GetPartitioned(s.Name); !ok {
		if _, ok := e.Catalog.Get(s.Name); !ok {
			return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownTable, s.Name)
		}
	}
	return e.mutate(&wal.Record{Type: wal.TypeDropTable, Table: s.Name}, func() (*Result, error) {
		return e.applyDropTable(s.Name)
	})
}

func (e *Engine) applyDropTable(name string) (*Result, error) {
	// A partitioned parent cascades to its children's tables and models.
	var childNames []string
	if pt, ok := e.Catalog.GetPartitioned(name); ok {
		for _, child := range pt.Partitions() {
			childNames = append(childNames, child.Name)
		}
	}
	if !e.Catalog.Drop(name) {
		return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownTable, name)
	}
	// Models captured on the table describe data that no longer exists.
	dropped := e.Models.DropForTable(name)
	for _, child := range childNames {
		dropped = append(dropped, e.Models.DropForTable(child)...)
	}
	for _, mn := range dropped {
		if r := e.AutoRefit(); r != nil {
			r.Reset(mn)
		}
	}
	info := fmt.Sprintf("table %s dropped", name)
	if len(childNames) > 0 {
		info = fmt.Sprintf("table %s dropped (%d partitions)", name, len(childNames))
	}
	if len(dropped) > 0 {
		info += fmt.Sprintf(" (with %d captured model(s): %s)", len(dropped), strings.Join(dropped, ", "))
	}
	return &Result{Info: info}, nil
}

func (e *Engine) execInsert(s *sql.InsertStmt) (*Result, error) {
	env := expr.MapEnv{}
	rows := make([][]expr.Value, len(s.Rows))
	for r, rowExprs := range s.Rows {
		row := make([]expr.Value, len(rowExprs))
		for i, re := range rowExprs {
			v, err := expr.Eval(re, env)
			if err != nil {
				return nil, fmt.Errorf("datalaws: evaluating insert value: %w", err)
			}
			row[i] = v
		}
		rows[r] = row
	}
	if err := e.checkAppendTarget(s.Table); err != nil {
		return nil, err
	}
	n, err := e.appendNamed(s.Table, rows)
	if err != nil {
		return nil, err
	}
	return &Result{Info: fmt.Sprintf("%d rows inserted", n)}, nil
}

func (e *Engine) execFit(spec *modelstore.Spec) (*Result, error) {
	return e.mutate(fitRecord(*spec), func() (*Result, error) {
		return e.applyFit(*spec)
	})
}

// applyFit captures one model — the FIT MODEL statement, the in-process
// strawman and WAL replay all land here. The result's one row is the
// client-visible capture.FitSummary, in capture.SummaryColumns layout.
func (e *Engine) applyFit(spec modelstore.Spec) (*Result, error) {
	var sum capture.FitSummary
	var info string
	if pt, ok := e.Catalog.GetPartitioned(spec.Table); ok {
		caps, err := e.Models.CapturePartitioned(pt, spec)
		if err != nil {
			return nil, err
		}
		sum, info = familyFit(spec, caps)
	} else {
		t, err := e.Catalog.Lookup(spec.Table)
		if err != nil {
			return nil, fmt.Errorf("datalaws: %w", err)
		}
		m, err := e.Models.Capture(t, spec)
		if err != nil {
			return nil, err
		}
		sum = capture.SummaryFromModel(m)
		info = fmt.Sprintf("model %s captured: %d groups fitted (%d failed), median R²=%.4f, median residual SE=%.4g, parameter table %d bytes",
			m.Spec.Name, m.Quality.GroupsOK, m.Quality.GroupsFailed,
			m.Quality.MedianR2, m.Quality.MedianResidualSE, m.ParamSizeBytes())
	}
	return &Result{Model: spec.Name, Info: info,
		Columns: capture.SummaryColumns(), Rows: []exec.Row{capture.SummaryRow(sum)}}, nil
}

func (e *Engine) execShowModels() (*Result, error) {
	res := &Result{Columns: []string{"name", "table", "formula", "groups", "median_r2", "median_residual_se", "version", "param_bytes"}}
	for _, m := range e.Models.List() {
		res.Rows = append(res.Rows, exec.Row{
			expr.Str(m.Spec.Name),
			expr.Str(m.Spec.Table),
			expr.Str(m.Spec.Formula),
			expr.Int(int64(m.Quality.GroupsOK)),
			expr.Float(m.Quality.MedianR2),
			expr.Float(m.Quality.MedianResidualSE),
			expr.Int(int64(m.Version)),
			expr.Int(int64(m.ParamSizeBytes())),
		})
	}
	return res, nil
}

func (e *Engine) execRefit(s *sql.RefitModelStmt) (*Result, error) {
	if _, ok := e.Models.Get(s.Name); !ok && len(e.Models.Family(s.Name)) == 0 {
		return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownModel, s.Name)
	}
	return e.mutate(&wal.Record{Type: wal.TypeRefitModel, Name: s.Name}, func() (*Result, error) {
		return e.applyRefit(s.Name)
	})
}

func (e *Engine) applyRefit(name string) (*Result, error) {
	m, ok := e.Models.Get(name)
	if !ok {
		// A partitioned family refits member by member, each against its own
		// partition — a manual REFIT of the family touches every partition,
		// while background refits stay per-partition.
		if fam := e.Models.Family(name); len(fam) > 0 {
			refitted := 0
			var errs []string
			for _, fm := range fam {
				t, err := e.Catalog.Lookup(fm.Spec.Table)
				if err != nil {
					errs = append(errs, fmt.Sprintf("%s: %v", fm.Spec.Name, err))
					continue
				}
				nm, err := e.Models.Refit(fm.Spec.Name, t)
				if err != nil {
					errs = append(errs, fmt.Sprintf("%s: %v", fm.Spec.Name, err))
					continue
				}
				refitted++
				if r := e.AutoRefit(); r != nil {
					r.Reset(nm.Spec.Name)
				}
			}
			info := fmt.Sprintf("model %s refitted on %d/%d partitions", name, refitted, len(fam))
			if len(errs) > 0 {
				info += " (" + strings.Join(errs, "; ") + ")"
			}
			if refitted == 0 {
				return nil, fmt.Errorf("datalaws: refit of %q failed on every partition: %s", name, strings.Join(errs, "; "))
			}
			return &Result{Model: name, Info: info}, nil
		}
		return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownModel, name)
	}
	t, err := e.Catalog.Lookup(m.Spec.Table)
	if err != nil {
		return nil, fmt.Errorf("datalaws: %w (model %q was fitted on it)", err, name)
	}
	nm, err := e.Models.Refit(name, t)
	if err != nil {
		return nil, err
	}
	// Drift evidence collected against the old version is obsolete.
	if r := e.AutoRefit(); r != nil {
		r.Reset(name)
	}
	return &Result{
		Model: nm.Spec.Name,
		Info: fmt.Sprintf("model %s refitted to version %d: median R²=%.4f",
			nm.Spec.Name, nm.Version, nm.Quality.MedianR2),
	}, nil
}

func (e *Engine) execExplain(s *sql.ExplainStmt) (*Result, error) {
	if s.Inner.Approx {
		plan, err := aqp.BuildApproxSelect(e.Catalog, e.Models, s.Inner, e.aqpOptions())
		if err != nil {
			return nil, err
		}
		info := fmt.Sprintf("approximate plan (model %s", plan.Model.Spec.Name)
		if plan.Hybrid {
			info += ", hybrid"
		}
		info += ")"
		if plan.PartsTotal > 0 {
			info += fmt.Sprintf("\npartitions: %d/%d pruned", plan.PartsPruned, plan.PartsTotal)
		}
		info += "\n" + exec.PlanString(plan.Op)
		return &Result{Info: info, Model: plan.Model.Spec.Name, ApproxGrid: plan.GridRows, Hybrid: plan.Hybrid,
			Partitions: plan.PartsTotal, PartitionsPruned: plan.PartsPruned}, nil
	}
	op, err := exec.BuildSelect(e.Catalog, s.Inner, nil, e.parallelism())
	if err != nil {
		return nil, err
	}
	return &Result{Info: "exact plan\n" + exec.PlanString(op)}, nil
}

// RegisterTable adds an externally built table to the catalog. It is the
// documented pre-WAL escape hatch (see wal_engine.go): tables registered this
// way are not replayable from the log and callers own their persistence.
//
//lint:ignore walgate RegisterTable predates AttachWAL by contract; registration is deliberately unlogged
func (e *Engine) RegisterTable(t *table.Table) error { return e.Catalog.Add(t) }

// parallelism snapshots the exact pipelines' worker budget.
func (e *Engine) parallelism() int {
	e.knobMu.RLock()
	defer e.knobMu.RUnlock()
	return e.Parallelism
}

// aqpOptions snapshots the approximate-planning options for one execution.
func (e *Engine) aqpOptions() aqp.Options {
	e.knobMu.RLock()
	defer e.knobMu.RUnlock()
	return e.AQP
}

// SetParallelism points every parallelism knob at n at once: exact query
// pipelines, approximate (model-scan) pipelines, and grouped model fitting
// — cold fits, REFIT MODEL, and background refits. n = 0 restores the
// GOMAXPROCS default; n = 1 forces serial execution. It is safe to call
// while other sessions are querying; statements prepared before the change
// pick the new value up on their next execution.
func (e *Engine) SetParallelism(n int) {
	e.knobMu.Lock()
	e.Parallelism = n
	e.AQP.Parallelism = n
	e.knobMu.Unlock()
	e.Models.SetFitParallelism(n)
}

// SetReplica switches the engine into model-only replica mode: mutations
// and exact SELECTs are rejected with wireerr.ErrReplicaReadOnly (the
// catalog holds zero-row stub tables — there are no rows to scan or append
// to), APPROX queries never fall back to exact plans, and WITH ERROR bounds
// are widened by inflate (the replication layer's measured primary
// staleness plus feed lag) instead of local table growth. Call before
// serving traffic; inflate's dynamic type must be comparable (Options is
// compared with ==).
func (e *Engine) SetReplica(inflate aqp.Inflator) {
	e.knobMu.Lock()
	e.replica = true
	e.AQP.FallbackExact = false
	e.AQP.StaleInflate = true
	e.AQP.Inflate = inflate
	e.knobMu.Unlock()
}

// IsReplica reports whether the engine is in model-only replica mode.
func (e *Engine) IsReplica() bool {
	e.knobMu.RLock()
	defer e.knobMu.RUnlock()
	return e.replica
}

// AQPOptions snapshots the engine's approximate-query options. The network
// server's feed reads only its Cache: the domain states that local planning
// binds against are the ones shipped increments are cut from on a primary
// and applied to on a replica.
func (e *Engine) AQPOptions() aqp.Options {
	return e.aqpOptions()
}

// SetChunkCacheBudget bounds the decoded-column cache: scans over sealed
// (compressed) chunks keep at most this many decoded bytes resident, so a
// table much larger than the budget still scans in bounded memory. The
// cache is process-wide — all engines and tables share it. A budget of 0
// disables caching; the default is table.DefaultChunkCacheBytes (128 MiB).
func (e *Engine) SetChunkCacheBudget(bytes int64) { table.SetChunkCacheBudget(bytes) }

// ChunkCacheStats reports the decoded-column cache's occupancy and traffic:
// chunk reads as hits and misses, and the column frames they decoded.
func (e *Engine) ChunkCacheStats() table.ChunkCacheStats { return table.CacheStats() }

// --- capture.Backend implementation (Figure 2's database side) ---

// TableInfo implements capture.Backend.
func (e *Engine) TableInfo(name string) ([]string, int, error) {
	if pt, ok := e.Catalog.GetPartitioned(name); ok {
		return pt.Schema().Names(), pt.NumRows(), nil
	}
	t, err := e.Catalog.Lookup(name)
	if err != nil {
		return nil, 0, fmt.Errorf("datalaws: %w", err)
	}
	return t.Schema().Names(), t.NumRows(), nil
}

// FitModel implements capture.Backend: the transparent server-side capture
// of a user model fitted from a statistical session. On a partitioned table
// the capture fans out per partition and the summary aggregates the family.
func (e *Engine) FitModel(spec modelstore.Spec) (capture.FitSummary, error) {
	// The transparent capture is a mutation like FIT MODEL: it is logged (as
	// the same logical record) before the model store changes, so a captured
	// session model survives recovery.
	res, err := e.mutate(fitRecord(spec), func() (*Result, error) {
		return e.applyFit(spec)
	})
	if err != nil {
		return capture.FitSummary{}, err
	}
	return capture.SummaryFromRow(res.Rows[0])
}

// familyFit aggregates a family capture into one client-visible summary and
// the statement's Info line. Quality figures pool every partition's fitted
// groups — medians are computed across all group R²/SE values, weighted by
// how many groups each partition fitted — so one good partition cannot
// advertise quality the rest of the family lacks. A partition whose whole
// fit failed counts its (unknown) group total as one failure and surfaces
// in GroupsFailed.
func familyFit(spec modelstore.Spec, caps []modelstore.PartitionCapture) (capture.FitSummary, string) {
	sum := capture.FitSummary{Name: spec.Name, WorstR2: math.Inf(1)}
	var r2s, ses []float64
	var failures []string
	for _, c := range caps {
		if c.Err != nil {
			sum.GroupsFailed++
			failures = append(failures, fmt.Sprintf("%s: %v", c.Partition, c.Err))
			continue
		}
		m := c.Model
		if sum.Formula == "" {
			sum.Formula = m.Spec.Formula
			sum.Params = append([]string(nil), m.Model.Params...)
			sum.ModelVersion = m.Version
		}
		sum.Groups += m.Quality.GroupsOK
		sum.GroupsFailed += m.Quality.GroupsFailed
		sum.ParamTableBytes += m.ParamSizeBytes()
		for _, g := range m.Groups {
			if g.OK() {
				r2s = append(r2s, g.R2)
				ses = append(ses, g.ResidualSE)
				if g.R2 < sum.WorstR2 {
					sum.WorstR2 = g.R2
				}
			}
		}
	}
	if len(r2s) > 0 {
		sum.MedianR2 = stats.Median(r2s)
		sum.MeanR2 = stats.Mean(r2s)
		sum.MedianResidSE = stats.Median(ses)
	} else {
		sum.WorstR2 = math.NaN()
	}
	info := fmt.Sprintf("model %s captured on %d/%d partitions of %s, parameter tables %d bytes",
		spec.Name, len(caps)-len(failures), len(caps), spec.Table, sum.ParamTableBytes)
	if len(failures) > 0 {
		info += fmt.Sprintf(" (%d partition(s) unmodeled, answered raw: %s)", len(failures), strings.Join(failures, "; "))
	}
	return sum, info
}

// ApproxPoint implements capture.Backend: a zero-IO point lookup against a
// captured model with error bounds. A level outside (0, 1), NaN included,
// takes the 95% default.
func (e *Engine) ApproxPoint(model string, group int64, inputs []float64, level float64) (capture.PointAnswer, error) {
	m, err := e.pointModel(model, group, inputs)
	if err != nil {
		return capture.PointAnswer{}, err
	}
	if !(level > 0 && level < 1) {
		level = 0.95
	}
	v, lo, hi, err := aqp.PointLookup(m, group, inputs, level)
	if err != nil {
		return capture.PointAnswer{}, err
	}
	return capture.PointAnswer{Value: v, Lo: lo, Hi: hi, FromModel: true, ModelName: m.Spec.Name, ModelVersion: m.Version}, nil
}

// pointModel resolves the model a point is answered from: the named model,
// or, when the name is a partitioned family, the member whose partition
// holds the point. The point is routed on the partition column, which must
// be the model's group column or one of its inputs.
func (e *Engine) pointModel(name string, group int64, inputs []float64) (*modelstore.CapturedModel, error) {
	if m, ok := e.Models.Get(name); ok {
		return m, nil
	}
	fam := e.Models.Family(name)
	if len(fam) == 0 {
		return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownModel, name)
	}
	spec := fam[0].Spec
	parent, _, _ := strings.Cut(spec.Table, "#")
	pt, ok := e.Catalog.GetPartitioned(parent)
	if !ok {
		return nil, fmt.Errorf("datalaws: %w: %q", ErrUnknownTable, parent)
	}
	col := pt.Column()
	key := float64(group)
	if col != spec.GroupBy {
		i := slices.Index(spec.Inputs, col)
		if i < 0 {
			return nil, fmt.Errorf("datalaws: a point of family %q needs partition column %q as its group or an input", name, col)
		}
		if len(inputs) != len(spec.Inputs) {
			return nil, fmt.Errorf("datalaws: %d inputs, family %q has %d", len(inputs), name, len(spec.Inputs))
		}
		key = inputs[i]
	}
	p, err := pt.Route(key)
	if err != nil {
		return nil, err
	}
	part := pt.Ranges()[p].Name
	if m, ok := e.Models.Get(modelstore.PartitionModelName(name, part)); ok {
		return m, nil
	}
	return nil, fmt.Errorf("datalaws: %w: partition %s of family %q has no fitted model", ErrNoModel, part, name)
}

// FormatResult renders a result as an aligned text table for CLIs and
// examples.
func FormatResult(r *Result) string {
	var sb strings.Builder
	if r.Info != "" {
		sb.WriteString(r.Info)
		sb.WriteByte('\n')
	}
	if len(r.Columns) == 0 {
		return sb.String()
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := renderCell(v)
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func renderCell(v expr.Value) string {
	switch v.K {
	case expr.KindString:
		return v.S
	case expr.KindFloat:
		return fmt.Sprintf("%.6g", v.F)
	default:
		return v.String()
	}
}
