package datalaws

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"datalaws/internal/aqp"
	"datalaws/internal/exec"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
	"datalaws/internal/wireerr"
)

// Report says which route answered a statement and how good the model
// behind it was. The in-process cursor (Rows), the materialized Result and
// the remote cursor (server.Rows) carry the same value, and EXPLAIN reports
// the route the statement itself takes.
type Report struct {
	// Model names the captured model an approximate plan read ("" for
	// exact plans), or the model a FIT MODEL or REFIT MODEL wrote.
	Model string
	// ModelVersion is the plan's model's refit generation, so a session can
	// see a background refit being picked up, or the version a FIT MODEL or
	// REFIT MODEL wrote. A partitioned family's REFIT leaves it 0: each
	// member refits to its own version, and no one number names them all.
	ModelVersion int
	// ApproxGrid is the model grid size before legality filtering.
	ApproxGrid int
	// Hybrid reports partial coverage: model tuples inside the model's
	// region and raw rows outside it, or for partitions without a trusted
	// model.
	Hybrid bool
	// SEInflation is the staleness widening applied to WITH ERROR bounds: 1
	// for a fresh model, 0 for exact plans.
	SEInflation float64
	// ExactFallback reports that an APPROX SELECT was answered by the exact
	// plan because no trusted model covered it (AQP.FallbackExact).
	ExactFallback bool
	// Partitions and PartitionsPruned report range-partition pruning for
	// approximate plans: of Partitions partitions, PartitionsPruned were
	// skipped, models and rows, before execution (0/0 when the FROM table
	// is not partitioned).
	Partitions       int
	PartitionsPruned int
}

// planReport is the report of an approximate plan.
func planReport(p *aqp.Plan) Report {
	return Report{Model: p.Model.Spec.Name, ModelVersion: p.Model.Version, ApproxGrid: p.GridRows,
		Hybrid: p.Hybrid, SEInflation: p.SEInflation, Partitions: p.PartsTotal, PartitionsPruned: p.PartsPruned}
}

// Rows is a streaming result cursor, shaped like database/sql.Rows: call
// Next until it returns false, Scan (or Row) inside the loop, then check Err
// and Close. Query results pull lazily from the executor — a LIMITed or
// abandoned cursor never materializes the rest of the result — and honor
// the query context, so canceling it aborts the scan mid-flight. Statements
// without a row stream (DDL, FIT MODEL, …) yield an empty or materialized
// cursor with Info set.
//
// A Rows is owned by one goroutine; the Engine underneath is safe for any
// number of concurrent sessions.
type Rows struct {
	// Info carries the human-readable summary of DDL/utility statements.
	Info string
	Report

	cols   []string
	op     exec.Operator // streaming source; nil for materialized results
	buf    []exec.Row    // materialized results
	pos    int
	cur    exec.Row
	err    error
	closed bool
}

// Columns returns the output column names ([] for statements without rows).
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reporting false at end of input or on
// error (check Err afterwards). The cursor closes itself on exhaustion.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.op == nil {
		if r.pos >= len(r.buf) {
			r.Close()
			return false
		}
		r.cur = r.buf[r.pos]
		r.pos++
		return true
	}
	row, err := r.op.Next()
	if err != nil {
		r.err = err
		r.Close()
		return false
	}
	if row == nil {
		r.Close()
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row as boxed values; valid until the next call to
// Next.
func (r *Rows) Row() exec.Row { return r.cur }

// Scan copies the current row's values into dest, one pointer per column.
// Supported targets: *int64, *float64 (INT coerces), *string, *bool,
// *expr.Value, and *any (native Go value, nil for NULL).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("datalaws: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("datalaws: Scan got %d targets for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		if err := r.cur[i].Scan(d); err != nil {
			return fmt.Errorf("datalaws: Scan column %d (%s): %w", i, r.colName(i), err)
		}
	}
	return nil
}

func (r *Rows) colName(i int) string {
	if i < len(r.cols) {
		return r.cols[i]
	}
	return "?"
}

// Err returns the error that terminated iteration, if any. Context
// cancellation surfaces here as the context's error.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. It is idempotent and safe after exhaustion.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.op != nil {
		return r.op.Close()
	}
	return nil
}

// Stmt is a prepared statement: the SQL text is parsed once, `?`
// placeholders are bound per execution, and — for APPROX SELECT — the
// zero-IO plan's model choice, input domains and legal set are resolved
// once and reused across executions. A Stmt is safe for concurrent use;
// each execution builds its own operator state.
type Stmt struct {
	eng     *Engine
	src     string
	ast     sql.Stmt
	nparams int

	mu         sync.Mutex
	approx     *aqp.Prepared
	approxOpts aqp.Options
}

// Prepare parses src once and returns a reusable statement handle.
// Placeholders (`?`) are positional; executions supply one argument per
// placeholder.
func (e *Engine) Prepare(src string) (*Stmt, error) {
	ast, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: e, src: src, ast: ast, nparams: sql.NumParams(ast)}, nil
}

// NumParams returns the number of `?` placeholders the statement expects.
func (s *Stmt) NumParams() int { return s.nparams }

// Close releases the statement. Plans are engine-owned, so this is a no-op
// kept for database/sql-style symmetry; the Stmt remains usable.
func (s *Stmt) Close() error { return nil }

// Query binds args and executes the statement, streaming rows as the
// executor produces them. ctx cancels the execution between rows (or
// batches, on the vectorized path); the cursor's Err then reports the
// context error.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	vals, err := expr.ValuesOf(args)
	if err != nil {
		return nil, fmt.Errorf("datalaws: %w", err)
	}
	bound, err := sql.BindPrepared(s.ast, vals, s.nparams)
	if err != nil {
		return nil, err
	}
	var res *Result
	switch st := bound.(type) {
	case *sql.SelectStmt:
		return s.querySelect(ctx, st)
	case *sql.ExplainStmt:
		res, err = s.explain(st.Inner)
	default:
		// Statements without a row stream execute eagerly; their outcome is
		// materialized into the cursor.
		res, err = s.eng.execStmt(bound)
	}
	if err != nil {
		return nil, err
	}
	return &Rows{Info: res.Info, Report: res.Report, cols: res.Columns, buf: res.Rows}, nil
}

// Exec binds args, runs the statement to completion and materializes the
// outcome; the convenience form of Query for small results and DDL.
func (s *Stmt) Exec(ctx context.Context, args ...any) (*Result, error) {
	rows, err := s.Query(ctx, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{Columns: rows.Columns(), Info: rows.Info, Report: rows.Report}
	var slab exec.RowSlab
	for rows.Next() {
		res.Rows = append(res.Rows, slab.Copy(rows.Row()))
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Stmt) querySelect(ctx context.Context, sel *sql.SelectStmt) (*Rows, error) {
	op, rep, err := s.route(sel)
	if err != nil {
		return nil, err
	}
	exec.BindContext(op, ctx)
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	return &Rows{Report: rep, cols: op.Columns(), op: op}, nil
}

// explain renders the route sel takes: the plan querySelect would open.
func (s *Stmt) explain(sel *sql.SelectStmt) (*Result, error) {
	op, rep, err := s.route(sel)
	if err != nil {
		return nil, err
	}
	info := "exact plan"
	switch {
	case rep.Model != "":
		info = "approximate plan (model " + rep.Model
		if rep.Hybrid {
			info += ", hybrid"
		}
		info += ")"
	case rep.ExactFallback:
		info = "exact plan (fallback: no trusted model)"
	}
	if rep.Partitions > 0 {
		info += fmt.Sprintf("\npartitions: %d/%d pruned", rep.PartitionsPruned, rep.Partitions)
	}
	return &Result{Info: info + "\n" + exec.PlanString(op), Report: rep}, nil
}

// route chooses how a bound SELECT is answered, from a model, by the exact
// fallback, exactly, or not at all on a replica, and returns that route's
// unopened operator with its report. Execution and EXPLAIN both take it.
func (s *Stmt) route(sel *sql.SelectStmt) (exec.Operator, Report, error) {
	if !sel.Approx {
		// A replica's tables are zero-row stubs: an exact scan would not
		// fail, it would answer wrongly (empty). Reject with the routing
		// sentinel instead so clients send exact traffic to the primary.
		if s.eng.IsReplica() {
			return nil, Report{}, fmt.Errorf("datalaws: exact SELECT needs raw rows: %w", wireerr.ErrReplicaReadOnly)
		}
		op, err := exec.BuildSelect(s.eng.Catalog, sel, nil, s.eng.parallelism())
		return op, Report{}, err
	}
	var plan *aqp.Plan
	prep, err := s.prepared()
	if err == nil {
		plan, err = prep.Bind(sel)
	}
	if err == nil {
		return plan.Op, planReport(plan), nil
	}
	// Staleness-aware fallback: with no trusted model (never fitted,
	// dropped, or revoked by the staleness policy mid-stream), answer the
	// query exactly instead of failing — live systems should not bounce
	// APPROX traffic because a law expired. Anything but ErrNoModel, or a
	// failure of the exact plan itself (e.g. the query projects model-only
	// _lo/_hi columns), reports the original approximate-planning error.
	if !s.eng.aqpOptions().FallbackExact || !errors.Is(err, modelstore.ErrNoModel) {
		return nil, Report{}, err
	}
	op, exErr := exec.BuildSelect(s.eng.Catalog, sel, nil, s.eng.parallelism())
	if exErr != nil {
		return nil, Report{}, err
	}
	return op, Report{ExactFallback: true}, nil
}

// prepared returns the rebindable approximate plan of the statement's
// unbound SELECT (an EXPLAIN's inner one), building it on first use and
// rebuilding it if the engine's AQP options changed since.
func (s *Stmt) prepared() (*aqp.Prepared, error) {
	sel, ok := s.ast.(*sql.SelectStmt)
	if !ok {
		sel = s.ast.(*sql.ExplainStmt).Inner
	}
	opts := s.eng.aqpOptions()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.approx != nil && s.approxOpts == opts {
		return s.approx, nil
	}
	prep, err := aqp.PrepareApproxSelect(s.eng.Catalog, s.eng.Models, sel, opts)
	if err != nil {
		return nil, err
	}
	s.approx, s.approxOpts = prep, opts
	return prep, nil
}

// Query parses (or fetches from the engine's plan cache) one SQL statement,
// binds args to its `?` placeholders, and executes it with streaming
// results. It is the primary query entry point; Exec wraps it for callers
// that want everything materialized.
func (e *Engine) Query(ctx context.Context, src string, args ...any) (*Rows, error) {
	st, err := e.stmt(src)
	if err != nil {
		return nil, err
	}
	return st.Query(ctx, args...)
}

// ExecContext is Exec with a context and parameter binding: it runs one
// statement to completion and returns the materialized result.
func (e *Engine) ExecContext(ctx context.Context, src string, args ...any) (*Result, error) {
	st, err := e.stmt(src)
	if err != nil {
		return nil, err
	}
	return st.Exec(ctx, args...)
}

// stmt returns a compiled statement for src, consulting the engine's plan
// cache so repeated unprepared queries skip re-parsing (and, for APPROX
// SELECT, grid re-planning). Only SELECT and EXPLAIN texts are cached:
// DDL/DML texts rarely repeat and would only churn the LRU. Cache entries
// carry the catalog/model epochs they were compiled under, so DDL and model
// catalog changes (including background refits) invalidate them.
func (e *Engine) stmt(src string) (*Stmt, error) {
	catEpoch, modEpoch := e.Catalog.Epoch(), e.Models.Epoch()
	if st := e.plans.get(src, catEpoch, modEpoch); st != nil {
		return st, nil
	}
	st, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	switch st.ast.(type) {
	case *sql.SelectStmt, *sql.ExplainStmt:
		e.plans.put(src, st, catEpoch, modEpoch)
	}
	return st, nil
}
