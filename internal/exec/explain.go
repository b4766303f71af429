package exec

import (
	"fmt"
	"strings"
)

// Explainer lets external operators (e.g. the model scan) describe
// themselves in EXPLAIN output.
type Explainer interface {
	ExplainInfo() string
}

// PlanString renders a statement's plan as an indented tree, one operator
// per line, children indented below their parent.
func PlanString(op Operator) string {
	var sb strings.Builder
	switch o := op.(type) {
	case *rowAdapter:
		sb.WriteString("Vectorized\n")
		writeVecPlan(&sb, o.V, 1)
	case Explainer:
		fmt.Fprintf(&sb, "%s\n", o.ExplainInfo())
	default:
		fmt.Fprintf(&sb, "%T\n", op)
	}
	return sb.String()
}

// writeVecPlan renders the batch pipeline below the row adapter.
func writeVecPlan(sb *strings.Builder, op VectorOperator, depth int) {
	indent := strings.Repeat("  ", depth)
	switch o := op.(type) {
	case *VecValuesScan:
		fmt.Fprintf(sb, "%sVecValuesScan (%d rows)\n", indent, len(o.Rows))
	case *VecFilter:
		fmt.Fprintf(sb, "%sVecFilter %s\n", indent, o.Pred)
		writeVecPlan(sb, o.Child, depth+1)
	case *VecProject:
		fmt.Fprintf(sb, "%sVecProject %s\n", indent, strings.Join(o.Names, ", "))
		writeVecPlan(sb, o.Child, depth+1)
	case *VecConcat:
		fmt.Fprintf(sb, "%sVecConcat (%d children)\n", indent, len(o.Children))
		for _, c := range o.Children {
			writeVecPlan(sb, c, depth+1)
		}
	case *VecGather:
		limit := ""
		if o.limit >= 0 {
			limit = fmt.Sprintf(" limit=%d", o.limit)
		}
		fmt.Fprintf(sb, "%sGather workers=%d%s (morsel-driven, in order)\n", indent, o.Workers(), limit)
		writeVecPlan(sb, o.pipes[0].pipe, depth+1)
	case *VecHashAggregate:
		var parts []string
		for _, g := range o.GroupExprs {
			parts = append(parts, g.String())
		}
		fmt.Fprintf(sb, "%sVecHashAggregate group=[%s] aggs=%d workers=%d (partial+merge)\n",
			indent, strings.Join(parts, ", "), len(o.Aggs), o.Workers())
		writeVecPlan(sb, o.pipes[0].pipe, depth+1)
	case *VecHashJoin:
		fmt.Fprintf(sb, "%sVecHashJoin on %s (build: right input, probe per morsel)\n", indent, o.build.On)
		writeVecPlan(sb, o.Child, depth+1)
		writeVecPlan(sb, o.build.right.pipes[0].pipe, depth+1)
	case *VecSort:
		limit, runs := "", "runs"
		if o.Limit >= 0 {
			limit, runs = fmt.Sprintf(" limit=%d", o.Limit), "bounded heaps"
		}
		fmt.Fprintf(sb, "%sVecSort keys=%d%s workers=%d (per-worker %s, one merge)\n", indent, len(o.Keys), limit, o.Workers(), runs)
		writeVecPlan(sb, o.pipes[0].pipe, depth+1)
	case *oneMorsel:
		writeVecPlan(sb, o.VectorOperator, depth)
	default:
		if ex, ok := op.(Explainer); ok {
			fmt.Fprintf(sb, "%s%s\n", indent, ex.ExplainInfo())
			return
		}
		fmt.Fprintf(sb, "%s%T\n", indent, op)
	}
}

// OnePipeline returns an error unless plan, an EXPLAIN rendering, is one
// pipeline: one Gather drives it besides the one-worker gathers a VecConcat
// drains its children through.
func OnePipeline(plan string) error {
	var path []string // path[d]: the last operator rendered at depth d
	gathers := 0
	for _, line := range strings.Split(plan, "\n") {
		op := strings.TrimLeft(line, " ")
		d := min((len(line)-len(op))/2, len(path))
		if path = append(path[:d], op); strings.HasPrefix(op, "Gather") && (d == 0 || !strings.HasPrefix(path[d-1], "VecConcat")) {
			gathers++
		}
	}
	if gathers != 1 {
		return fmt.Errorf("%d gathers, want 1:\n%s", gathers, plan)
	}
	return nil
}
