package aqp

import (
	"fmt"

	"datalaws/internal/exec"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
)

// Approximate planning over range-partitioned tables. A model captured on a
// partitioned table is a family of per-partition models (see
// modelstore.CapturePartitioned); an APPROX SELECT first prunes partitions
// whose range cannot satisfy the WHERE predicate — skipping their models the
// same way the exact planner skips their rows — and then answers each
// surviving partition from its own model. Partitions with no trusted model
// (fit failed, model stale, dropped) are answered from raw rows, so one
// drifting regime degrades only its own partition to exact scanning.

// familyTemplate returns a deterministic family member covering the query's
// referenced columns, preferring earlier partitions. It establishes the
// column shape for raw-side projections and empty results, and proves at
// prepare time that the family can cover the query at all.
func (p *Prepared) familyTemplate() (*modelstore.CapturedModel, error) {
	pt := p.parted
	for i := 0; i < pt.NumParts(); i++ {
		for _, m := range p.store.ForTable(pt.Part(i).Name) {
			if covers(m, pt.Name, p.refs, p.withError) {
				return m, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: no captured model covers the referenced columns of partitioned table %q",
		modelstore.ErrNoModel, pt.Name)
}

// bindPartitioned instantiates one execution's operator tree for a
// partitioned APPROX SELECT: prune partitions, route each survivor through
// its best trusted model (or its raw rows), and stitch the pieces under the
// ordinary relational pipeline.
func (p *Prepared) bindPartitioned(st *sql.SelectStmt) (*Plan, error) {
	pt := p.parted
	template, err := p.familyTemplate()
	if err != nil {
		return nil, err
	}
	keep := pt.PruneExpr(st.Where, pt.Name)

	var sources []exec.Node
	var firstModel *modelstore.CapturedModel
	grid := 0
	hybrid := false
	inflateMax := 1.0
	for _, idx := range keep {
		child := pt.Part(idx)
		model, err := chooseModel(p.store, child.Name, pt.Name, child, p.refs, p.withError, p.opts.Policy)
		if err != nil {
			// No trusted model for this partition (never fitted, fit failed,
			// or revoked by staleness): answer its region from raw rows.
			sources = append(sources, rawProjection(child, pt.Name, template, p.withError))
			hybrid = true
			continue
		}
		if firstModel == nil {
			firstModel = model
		}
		domains, legal, _, err := p.opts.Cache.Get(child, model)
		if err != nil {
			return nil, err
		}
		inflate := Inflation(model, child, p.opts)
		if inflate > inflateMax {
			inflateMax = inflate
		}
		source, partial, err := p.modelSource(st, child, pt.Name, model, domains, legal, inflate)
		if err != nil {
			return nil, err
		}
		grid += GridSize(domains) * model.Quality.GroupsOK
		hybrid = hybrid || partial
		sources = append(sources, source)
	}

	// Even when no surviving partition has a trusted model, the family
	// exists (familyTemplate proved coverage), so the plan still answers —
	// entirely from raw rows, marked hybrid. APPROX thus degrades partition
	// by partition instead of bouncing the whole query.
	if firstModel == nil {
		firstModel = template
	}

	var source exec.Node
	switch len(sources) {
	case 0:
		// Every partition pruned: the result is provably empty.
		tmpl := &ModelScan{Model: template, TableName: pt.Name, WithError: st.WithError}
		source = &exec.ValuesScan{Cols: tmpl.Columns()}
	case 1:
		source = sources[0]
	default:
		source = &exec.Concat{Children: sources}
	}

	op, err := exec.BuildSelect(p.cat, st, source, p.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Op:          op,
		Model:       firstModel,
		Hybrid:      hybrid,
		GridRows:    grid,
		SEInflation: inflateMax,
		PartsTotal:  pt.NumParts(),
		PartsPruned: pt.NumParts() - len(keep),
	}, nil
}
