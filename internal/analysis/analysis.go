// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis core: Analyzer, Pass and Diagnostic, plus
// the project's //lint:ignore suppression directive. The build environment
// carries no third-party modules, so the suite vendors exactly the surface
// it needs on top of go/ast and go/types; analyzers written against it keep
// the upstream shape and could move to x/tools unchanged.
//
// The suite's analyzers (internal/analysis/passes/...) mechanically enforce
// engine invariants that were previously tribal knowledge:
//
//   - walgate: mutations must pass through the WAL log-then-apply gate
//   - snapshotread: a function reads a table through one ChunkView capture
//   - ctxloop: batch-pull and morsel-claim loops must observe cancellation
//   - ioerrsink: WAL/persist I/O errors must never be silently dropped
//
// Run them with cmd/datalaws-vet (standalone over package patterns, or as a
// `go vet -vettool`), or scripts/vet.sh.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc states the invariant the analyzer enforces and which PR
	// established it.
	Doc string
	// Run executes the check against one package and reports findings
	// through pass.Report. The result value is unused by this suite (kept
	// for upstream shape).
	Run func(*Pass) (interface{}, error)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// NewInfo returns a types.Info with every map an analyzer needs populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// --- //lint:ignore suppression -------------------------------------------

// An ignore directive has the form
//
//	//lint:ignore walgate reason the call is intentionally unlogged
//
// naming one analyzer (or a comma-separated list) and a mandatory non-empty
// reason. It suppresses matching diagnostics positioned on the directive's
// own line or on the line immediately below it (the staticcheck convention:
// the comment sits on or above the offending statement). A directive with no
// reason is itself reported — the whole point is that every suppression
// documents why the invariant does not apply.
type ignoreDirective struct {
	file     string
	line     int
	checks   []string
	hasWhy   bool
	pos      token.Pos
	consumed bool
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)(.*)$`)

func collectIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				out = append(out, &ignoreDirective{
					file:   p.Filename,
					line:   p.Line,
					checks: strings.Split(m[1], ","),
					hasWhy: strings.TrimSpace(m[2]) != "",
					pos:    c.Pos(),
				})
			}
		}
	}
	return out
}

// ApplyIgnores filters diags against the //lint:ignore directives found in
// files. It returns the surviving diagnostics plus extra diagnostics for
// malformed (reason-less) or unused directives, so a suppression can never
// rot silently after the code it excused is gone.
func ApplyIgnores(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	dirs := collectIgnores(fset, files)
	if len(dirs) == 0 {
		return diags
	}
	var kept []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range dirs {
			if !dir.hasWhy || dir.file != p.Filename {
				continue
			}
			if p.Line != dir.line && p.Line != dir.line+1 {
				continue
			}
			for _, c := range dir.checks {
				if c == d.Category {
					dir.consumed = true
					suppressed = true
					break
				}
			}
			if suppressed {
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range dirs {
		if !dir.hasWhy {
			kept = append(kept, Diagnostic{Pos: dir.pos, Category: "lint-directive",
				Message: "lint:ignore directive is missing its reason; document why the invariant does not apply"})
		} else if !dir.consumed {
			kept = append(kept, Diagnostic{Pos: dir.pos, Category: "lint-directive",
				Message: fmt.Sprintf("lint:ignore %s suppresses nothing here; remove the stale directive", strings.Join(dir.checks, ","))})
		}
	}
	return kept
}

// --- shared AST helpers ---------------------------------------------------

// WalkStack traverses every file, calling f with each node and the stack of
// its ancestors (outermost first, not including n itself). Analyzers use it
// where a finding's legality depends on enclosing context (the walgate's
// mutate-wrapper rule).
func WalkStack(files []*ast.File, f func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			f(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// EnclosingFuncName returns the name of the outermost function declaration
// on the stack ("" at package scope). Function literals report the named
// function that lexically contains them — allowlists reason about the
// top-level entry point, not the closure.
func EnclosingFuncName(stack []ast.Node) string {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The suite enforces production invariants; tests construct engines and
// tables directly by design, so diagnostics in test files are dropped.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// NamedReceiver resolves a method call's receiver to its named type,
// unwrapping pointers and aliases. It returns the package path and type
// name, or ok=false for non-method calls and unnamed receivers.
func NamedReceiver(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return "", "", "", false
	}
	named := namedOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), sel.Sel.Name, true
}

// PkgFunc resolves a call to a package-level function, returning its
// package path and name (ok=false for methods, builtins and locals).
func PkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[id].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, sigOK := fn.Type().(*types.Signature); !sigOK || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// IsNamedType reports whether t (possibly behind pointers) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}
