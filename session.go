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
	// Model names the captured model an approximate plan used ("" for exact
	// plans); ModelVersion is that model's refit generation, so sessions can
	// observe a background refit being picked up; ApproxGrid is the model
	// grid size before legality filtering; Hybrid reports partial-coverage
	// routing; SEInflation is the staleness widening applied to WITH ERROR
	// bounds (0 for exact plans, 1 for a fresh model); ExactFallback reports
	// that an APPROX SELECT was answered by the exact plan because no
	// trusted model covered it (Options.FallbackExact).
	Model         string
	ModelVersion  int
	ApproxGrid    int
	Hybrid        bool
	SEInflation   float64
	ExactFallback bool
	// Partitions/PartitionsPruned report range-partition pruning for
	// approximate plans: of Partitions partitions, PartitionsPruned were
	// skipped — models and rows — before execution (0/0 when the FROM table
	// is not partitioned).
	Partitions       int
	PartitionsPruned int

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
	if sel, ok := bound.(*sql.SelectStmt); ok {
		return s.querySelect(ctx, sel)
	}
	// Statements without a row stream execute eagerly; their outcome is
	// materialized into the cursor.
	res, err := s.eng.execStmt(bound)
	if err != nil {
		return nil, err
	}
	return materializedRows(res), nil
}

// Exec binds args, runs the statement to completion and materializes the
// outcome; the convenience form of Query for small results and DDL.
func (s *Stmt) Exec(ctx context.Context, args ...any) (*Result, error) {
	rows, err := s.Query(ctx, args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{
		Columns:          rows.Columns(),
		Info:             rows.Info,
		Model:            rows.Model,
		ModelVersion:     rows.ModelVersion,
		ApproxGrid:       rows.ApproxGrid,
		Hybrid:           rows.Hybrid,
		SEInflation:      rows.SEInflation,
		ExactFallback:    rows.ExactFallback,
		Partitions:       rows.Partitions,
		PartitionsPruned: rows.PartitionsPruned,
	}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Stmt) querySelect(ctx context.Context, sel *sql.SelectStmt) (*Rows, error) {
	rows := &Rows{}
	var op exec.Operator
	if sel.Approx {
		var plan *aqp.Plan
		prep, err := s.prepared()
		if err == nil {
			plan, err = prep.Bind(sel)
		}
		if err != nil {
			// Staleness-aware fallback: with no trusted model (never fitted,
			// dropped, or revoked by the staleness policy mid-stream), answer
			// the query exactly instead of failing — live systems should not
			// bounce APPROX traffic because a law expired. Anything but
			// ErrNoModel, or a failure of the exact plan itself (e.g. the
			// query projects model-only _lo/_hi columns), reports the
			// original approximate-planning error.
			if !s.eng.aqpOptions().FallbackExact || !errors.Is(err, modelstore.ErrNoModel) {
				return nil, err
			}
			exact, exErr := exec.BuildSelect(s.eng.Catalog, sel, nil, s.eng.parallelism())
			if exErr != nil {
				return nil, err
			}
			op = exact
			rows.ExactFallback = true
		} else {
			op = plan.Op
			rows.Model = plan.Model.Spec.Name
			rows.ModelVersion = plan.Model.Version
			rows.ApproxGrid = plan.GridRows
			rows.Hybrid = plan.Hybrid
			rows.SEInflation = plan.SEInflation
			rows.Partitions = plan.PartsTotal
			rows.PartitionsPruned = plan.PartsPruned
		}
	} else {
		// A replica's tables are zero-row stubs: an exact scan would not
		// fail, it would answer wrongly (empty). Reject with the routing
		// sentinel instead so clients send exact traffic to the primary.
		if s.eng.IsReplica() {
			return nil, fmt.Errorf("datalaws: exact SELECT needs raw rows: %w", wireerr.ErrReplicaReadOnly)
		}
		var err error
		op, err = exec.BuildSelect(s.eng.Catalog, sel, nil, s.eng.parallelism())
		if err != nil {
			return nil, err
		}
	}
	exec.BindContext(op, ctx)
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	rows.cols = op.Columns()
	rows.op = op
	return rows, nil
}

// prepared returns the statement's rebindable approximate plan, building it
// on first use and rebuilding it if the engine's AQP options changed since.
func (s *Stmt) prepared() (*aqp.Prepared, error) {
	sel, ok := s.ast.(*sql.SelectStmt)
	if !ok || !sel.Approx {
		return nil, fmt.Errorf("datalaws: statement is not an APPROX SELECT")
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

// materializedRows wraps an eagerly computed Result as a cursor.
func materializedRows(res *Result) *Rows {
	return &Rows{
		Info:             res.Info,
		Model:            res.Model,
		ModelVersion:     res.ModelVersion,
		ApproxGrid:       res.ApproxGrid,
		Hybrid:           res.Hybrid,
		SEInflation:      res.SEInflation,
		ExactFallback:    res.ExactFallback,
		Partitions:       res.Partitions,
		PartitionsPruned: res.PartitionsPruned,
		cols:             res.Columns,
		buf:              res.Rows,
	}
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
