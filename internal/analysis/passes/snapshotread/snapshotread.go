// Package snapshotread enforces one view per read: code that reads a
// *table.Table must take everything it needs — columns, row count, version —
// from a single Chunks() capture, never from a second capture or a
// separately locked metadata call.
//
// Chunks is the only method of Table that returns row data, and every read
// hangs off the ChunkView it returns, so within one view nothing can tear.
// What the type cannot rule out is a function that captures twice, or sizes
// a view against t.NumRows()/t.Version() read under another lock
// acquisition: the two can straddle an append, and a fit, a residual or a
// legal-combination set built from them describes rows that never
// coexisted. One capture is fine; the second read of the same table in the
// same function is where the torn view becomes possible.
package snapshotread

import (
	"go/ast"

	"datalaws/internal/analysis"
)

// Analyzer flags functions that read one table through more than one
// separately locked call.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotread",
	Doc: `table reads must go through one ChunkView

Within one function, a second Chunks() capture of the same *table.Table —
or a capture combined with NumRows, Version or NumChunks on the table — is
flagged: each call locks independently, so the pair can observe different
append states. Capture once and read rows, row count and version through
the returned ChunkView. Decoding a sealed chunk through Chunk.Columns() is
also flagged outside the table package: it bypasses the shared decode
cache (and its memory budget); go through ChunkView.Columns instead.
The table package itself implements the view and is exempt.`,
	Run: run,
}

// dataAccessors read row data. Chunks is the only one: each capture is
// internally consistent, but two captures can still straddle an append.
var dataAccessors = map[string]bool{
	"Chunks": true,
}

// metaAccessors read table shape under their own lock acquisition; torn
// only when combined with a capture (e.g. NumRows sized against a view, or
// Version stamped on data read separately).
var metaAccessors = map[string]bool{
	"NumRows": true, "Version": true, "NumChunks": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == "datalaws/internal/table" {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// access is one accessor call on a table-valued receiver expression.
type access struct {
	call *ast.CallExpr
	name string
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Accessor calls grouped by receiver expression spelling. Keying on the
	// source text of the receiver ("t", "s.Table", "pt.Part(i)") is the
	// pragmatic identity: two identical spellings in one function denote the
	// same table in every realistic case, and differing spellings of one
	// table merely under-approximate.
	byRecv := map[string][]access{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if !dataAccessors[name] && !metaAccessors[name] && name != "Columns" {
			return true
		}
		rpkg, rtype, _, ok := analysis.NamedReceiver(pass.TypesInfo, call)
		if !ok || rpkg != "datalaws/internal/table" {
			return true
		}
		// Chunk.Columns decodes the sealed frames directly, skipping the
		// shared cache and its byte budget: every call re-pays the decode and
		// the result is unaccounted memory. Always wrong outside the table
		// package, regardless of pairing.
		if rtype == "Chunk" && name == "Columns" {
			pass.Reportf(call.Pos(),
				"Columns() on *table.Chunk decodes outside the shared chunk cache; read through a ChunkView (table.Chunks) so decodes are cached and budgeted")
			return true
		}
		if rtype != "Table" {
			return true
		}
		key := exprText(sel.X)
		byRecv[key] = append(byRecv[key], access{call: call, name: name})
		return true
	})
	for recv, accs := range byRecv {
		data := 0
		meta := 0
		for _, a := range accs {
			if dataAccessors[a.name] {
				data++
			} else {
				meta++
			}
		}
		if data < 1 || data+meta < 2 {
			continue
		}
		// Report once per table, at the second access: the first lone read
		// was consistent; the second is where the view can tear.
		a := accs[1]
		pass.Reportf(a.call.Pos(),
			"%s() is the second separately-locked read of table %q in %s (%d data/%d metadata reads); read through one ChunkView (a single %s.Chunks() capture) to avoid a torn view",
			a.name, recv, fd.Name.Name, data, meta, recv)
	}
}

// exprText renders a receiver expression back to source-ish text for keying
// and messages.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprText(x.Fun) + "(…)"
	case *ast.ParenExpr:
		return "(" + exprText(x.X) + ")"
	case *ast.IndexExpr:
		return exprText(x.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	default:
		return "table"
	}
}
