package sql

import (
	"datalaws/internal/expr"
	"datalaws/internal/table"
)

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// SelectItem is one projection in a select list.
type SelectItem struct {
	Expr  expr.Expr
	Alias string // "" means derive from the expression
	Star  bool   // SELECT *
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr expr.Expr
	Desc bool
}

// JoinClause is an inner equi-join against another table.
type JoinClause struct {
	Table string
	On    expr.Expr
}

// SelectStmt is a (possibly approximate) query.
type SelectStmt struct {
	// Approx requests model-based approximate answering (the paper's
	// zero-IO scan path); WithError additionally asks for error-bound
	// columns on model-derived values.
	Approx    bool
	WithError bool

	Items   []SelectItem
	From    string
	Joins   []JoinClause
	Where   expr.Expr
	GroupBy []expr.Expr
	Having  expr.Expr
	OrderBy []OrderKey
	Limit   int // -1 means no limit
}

func (*SelectStmt) stmt() {}

// CreateTableStmt creates a table, optionally range-partitioned. The
// parser fills the table's declaration directly.
type CreateTableStmt struct{ table.Decl }

func (*CreateTableStmt) stmt() {}

// InsertStmt appends literal rows.
type InsertStmt struct {
	Table string
	Rows  [][]expr.Expr // literal expressions, evaluated with an empty env
}

func (*InsertStmt) stmt() {}

// FitModelStmt captures a user model server-side: the FIT MODEL extension.
// It is also the in-memory spec of a captured law (modelstore.Spec), so the
// statement the parser produces is what the model store fits and keeps.
//
//	FIT MODEL spectra ON measurements
//	    AS 'intensity ~ p * pow(nu, alpha)'
//	    INPUTS (nu) GROUP BY source
//	    START (p = 1, alpha = -1)
//	    [WHERE ...] [METHOD LM|GN]
type FitModelStmt struct {
	Name    string
	Table   string
	Formula string
	Inputs  []string
	GroupBy string // optional grouping column (one level, as in the paper)
	Where   expr.Expr
	Start   map[string]float64
	Method  string // "", "lm", "gn"
}

func (*FitModelStmt) stmt() {}

// ShowModelsStmt lists captured models.
type ShowModelsStmt struct{}

func (*ShowModelsStmt) stmt() {}

// DropModelStmt removes a captured model.
type DropModelStmt struct{ Name string }

func (*DropModelStmt) stmt() {}

// DropTableStmt removes a table; models captured on it are dropped with it.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt() {}

// RefitModelStmt re-fits a stale model against current data (the paper's
// "data or model changes" maintenance action).
type RefitModelStmt struct{ Name string }

func (*RefitModelStmt) stmt() {}

// ExplainStmt wraps a SELECT whose physical plan should be rendered instead
// of executed.
type ExplainStmt struct{ Inner *SelectStmt }

func (*ExplainStmt) stmt() {}
