// Package walgate enforces the engine's durability gate: every call that
// mutates catalog, table or model-store state must pass through the WAL
// log-then-apply path, so no code path — today's REPL or a future network
// server — can change state the log never heard about.
//
// The invariant was established by the WAL PR (wal_engine.go): mutations run
// as Engine.mutate(record, apply) — the record is group-committed to the log
// first, then the apply* function (shared with recovery's replay dispatch)
// changes memory. A gated primitive called anywhere else is exactly the bug
// class recovery cannot repair: an effect with no record.
package walgate

import (
	"go/ast"
	"go/types"

	"datalaws/internal/analysis"
)

// Analyzer flags calls to state-mutating engine primitives made outside the
// WAL gate.
var Analyzer = &analysis.Analyzer{
	Name: "walgate",
	Doc: `mutations must go through the Engine.mutate log-then-apply gate

Gated primitives are the catalog mutators (Create/Declare/Add/
AddPartitioned/Drop), table appends (AppendRow/AppendRows) and model-store
mutators (Capture/CapturePartitioned/Refit/RefitCold/Drop/DropFamily/
DropForTable/Load).

In the engine package (and internal/refit, which holds engine-owned
references), any gated call is a diagnostic unless it occurs (a) inside an
apply* function or loadSnapshot — the replay/recovery paths that re-execute
already-logged records, or (b) lexically inside a function literal passed to
Engine.mutate — the live log-then-apply closure. Elsewhere, a gated call is
flagged when its receiver is reached through an *Engine (e.Catalog.Drop
from a client package bypasses that engine's log); free-standing tables and
stores never attached to an engine carry no durability contract and are not
flagged. Intentional exceptions carry a //lint:ignore walgate directive with
a documented reason.`,
	Run: run,
}

// gated maps (package, type) to the method set that mutates durable state.
var gated = map[[2]string]map[string]bool{
	{"datalaws/internal/table", "Table"}: {
		"AppendRow": true, "AppendRows": true,
	},
	{"datalaws/internal/table", "Catalog"}: {
		"Create": true, "Declare": true, "Add": true,
		"AddPartitioned": true, "Drop": true,
	},
	{"datalaws/internal/modelstore", "Store"}: {
		"Capture": true, "CapturePartitioned": true, "Refit": true,
		"RefitCold": true, "Drop": true, "DropFamily": true,
		"DropForTable": true, "Load": true,
	},
}

// strictPkgs hold engine-owned references to the primitives: every gated
// call there is inside the blast radius of the durability contract.
var strictPkgs = map[string]bool{
	"datalaws":                true,
	"datalaws/internal/refit": true,
}

// replayFuncs are the named recovery paths allowed to call primitives
// directly: they re-execute records already durable in the log (apply*) or
// rebuild state from a snapshot before the log attaches (loadSnapshot).
func isReplayFunc(name string) bool {
	return name == "loadSnapshot" || (len(name) >= 5 && name[:5] == "apply")
}

func run(pass *analysis.Pass) (interface{}, error) {
	pkgPath := pass.Pkg.Path()
	// The defining packages implement the primitives; their internal calls
	// are below the gate by construction.
	if pkgPath == "datalaws/internal/table" || pkgPath == "datalaws/internal/modelstore" {
		return nil, nil
	}
	strict := strictPkgs[pkgPath]
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		rpkg, rtype, method, ok := analysis.NamedReceiver(pass.TypesInfo, call)
		if !ok {
			return
		}
		methods, isGated := gated[[2]string{rpkg, rtype}]
		if !isGated || !methods[method] {
			return
		}
		if strict {
			if isReplayFunc(analysis.EnclosingFuncName(stack)) {
				return
			}
			if insideMutateLiteral(pass.TypesInfo, stack) {
				return
			}
			pass.Reportf(call.Pos(),
				"%s.%s mutates engine state outside the WAL gate; route it through Engine.mutate or an apply* replay function",
				rtype, method)
			return
		}
		// Outside the engine: only calls reaching through a live *Engine
		// bypass a log.
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel && rootsAtEngine(pass.TypesInfo, sel.X) {
			pass.Reportf(call.Pos(),
				"%s.%s reached through *datalaws.Engine bypasses its WAL gate; use the engine's logged API (Append/Exec/SaveDir) instead",
				rtype, method)
		}
	})
	return nil, nil
}

// insideMutateLiteral reports whether the node whose ancestor stack is given
// sits inside a function literal passed as an argument to Engine.mutate —
// the live log-then-apply closure.
func insideMutateLiteral(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		lit, isLit := stack[i].(*ast.FuncLit)
		if !isLit || i == 0 {
			continue
		}
		call, isCall := stack[i-1].(*ast.CallExpr)
		if !isCall {
			continue
		}
		isArg := false
		for _, arg := range call.Args {
			if arg == lit {
				isArg = true
				break
			}
		}
		if !isArg {
			continue
		}
		if pkg, typ, method, ok := analysis.NamedReceiver(info, call); ok &&
			pkg == "datalaws" && typ == "Engine" && method == "mutate" {
			return true
		}
	}
	return false
}

// rootsAtEngine reports whether the receiver expression reaches its value
// through a datalaws.Engine (e.Catalog, eng.Models.…, engines[i].Catalog).
func rootsAtEngine(info *types.Info, e ast.Expr) bool {
	for e != nil {
		if tv, ok := info.Types[e]; ok && analysis.IsNamedType(tv.Type, "datalaws", "Engine") {
			return true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
	return false
}
