package expr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Op enumerates unary and binary operators.
type Op uint8

// Operators. Comparison operators yield booleans under SQL three-valued
// logic; arithmetic operators propagate NULL.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpNeg
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub, OpNeg:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpPow:
		return "^"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpNot:
		return "NOT"
	}
	return "?"
}

// Expr is a parsed expression node.
type Expr interface {
	String() string
}

// Lit is a literal constant.
type Lit struct{ Val Value }

// String renders the literal as source that both this package's parser and
// the SQL parser read back, so a rendered predicate (WAL records,
// models.json, the model feed, a FIT MODEL sent over the wire) re-parses
// to the same value: strings in single quotes with each quote doubled, since
// Value.String quotes Go-style, and negative numbers parenthesized, so a
// preceding minus never lexes as a SQL "--" comment.
func (l *Lit) String() string {
	s := l.Val.String()
	switch {
	case l.Val.K == KindString:
		s = "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	case strings.HasPrefix(s, "-"):
		s = "(" + s + ")"
	}
	return s
}

// Ident references a column or free variable by name.
type Ident struct{ Name string }

func (i *Ident) String() string { return i.Name }

// Unary applies OpNeg or OpNot to X.
type Unary struct {
	Op Op
	X  Expr
}

func (u *Unary) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("NOT (%s)", u.X)
	}
	return fmt.Sprintf("(-%s)", u.X)
}

// Binary applies a binary operator to L and R.
type Binary struct {
	Op   Op
	L, R Expr
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Param is a positional statement parameter (the SQL `?` placeholder),
// 1-based in source order. Parameters carry no value of their own: a
// statement is bound before execution by substituting each Param with the
// literal supplied for its index (see BindParams), so compiled plans and
// kernels only ever see literals. Evaluating an unbound Param is an error.
type Param struct{ Index int }

func (p *Param) String() string { return fmt.Sprintf("$%d", p.Index) }

// MaxParam returns the highest parameter index referenced by e (0 when the
// expression has no placeholders).
func MaxParam(e Expr) int {
	max := 0
	switch n := e.(type) {
	case *Param:
		return n.Index
	case *Unary:
		return MaxParam(n.X)
	case *Binary:
		if l := MaxParam(n.L); l > max {
			max = l
		}
		if r := MaxParam(n.R); r > max {
			max = r
		}
	case *Call:
		for _, a := range n.Args {
			if m := MaxParam(a); m > max {
				max = m
			}
		}
	case *IsNullExpr:
		return MaxParam(n.X)
	}
	return max
}

// BindParams returns e with every Param replaced by the literal value at
// args[Index-1]. Subtrees without placeholders are returned unchanged (no
// copying), so binding a parameter-free expression is free.
func BindParams(e Expr, args []Value) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	switch n := e.(type) {
	case *Param:
		if n.Index < 1 || n.Index > len(args) {
			return nil, fmt.Errorf("expr: parameter $%d out of range (%d bound)", n.Index, len(args))
		}
		return &Lit{Val: args[n.Index-1]}, nil
	case *Unary:
		x, err := BindParams(n.X, args)
		if err != nil {
			return nil, err
		}
		if x == n.X {
			return n, nil
		}
		return &Unary{Op: n.Op, X: x}, nil
	case *Binary:
		l, err := BindParams(n.L, args)
		if err != nil {
			return nil, err
		}
		r, err := BindParams(n.R, args)
		if err != nil {
			return nil, err
		}
		if l == n.L && r == n.R {
			return n, nil
		}
		return &Binary{Op: n.Op, L: l, R: r}, nil
	case *Call:
		changed := false
		bound := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			b, err := BindParams(a, args)
			if err != nil {
				return nil, err
			}
			bound[i] = b
			if b != a {
				changed = true
			}
		}
		if !changed {
			return n, nil
		}
		return &Call{Name: n.Name, Args: bound}, nil
	case *IsNullExpr:
		x, err := BindParams(n.X, args)
		if err != nil {
			return nil, err
		}
		if x == n.X {
			return n, nil
		}
		return &IsNullExpr{X: x, Negate: n.Negate}, nil
	}
	return e, nil
}

// Call invokes a built-in function.
type Call struct {
	Name string
	Args []Expr
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// IsNullExpr tests X IS NULL (or IS NOT NULL when Negate is set).
type IsNullExpr struct {
	X      Expr
	Negate bool
}

func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.X)
	}
	return fmt.Sprintf("(%s IS NULL)", e.X)
}

// Vars returns the sorted set of identifier names referenced by e.
func Vars(e Expr) []string {
	out := AppendVars([]string{}, e)
	sort.Strings(out)
	return slices.Compact(out)
}

// AppendVars appends every identifier name e references to dst, in
// expression order and with repeats, and returns the extended slice. A nil
// e appends nothing.
func AppendVars(dst []string, e Expr) []string {
	switch n := e.(type) {
	case *Ident:
		dst = append(dst, n.Name)
	case *Unary:
		dst = AppendVars(dst, n.X)
	case *Binary:
		dst = AppendVars(AppendVars(dst, n.L), n.R)
	case *Call:
		for _, a := range n.Args {
			dst = AppendVars(dst, a)
		}
	case *IsNullExpr:
		dst = AppendVars(dst, n.X)
	}
	return dst
}

// Substitute returns a copy of e with identifiers replaced per subs. Names
// not present in subs are left untouched.
func Substitute(e Expr, subs map[string]Expr) Expr {
	switch n := e.(type) {
	case *Lit:
		return n
	case *Ident:
		if r, ok := subs[n.Name]; ok {
			return r
		}
		return n
	case *Unary:
		return &Unary{Op: n.Op, X: Substitute(n.X, subs)}
	case *Binary:
		return &Binary{Op: n.Op, L: Substitute(n.L, subs), R: Substitute(n.R, subs)}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Substitute(a, subs)
		}
		return &Call{Name: n.Name, Args: args}
	case *IsNullExpr:
		return &IsNullExpr{X: Substitute(n.X, subs), Negate: n.Negate}
	}
	return e
}
