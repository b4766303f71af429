// Fixture for walgate's strict mode: inside the engine package every gated
// call must sit in the mutate closure, a replay function, or carry a
// documented suppression.
package datalaws

import (
	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

// Record stands in for a WAL record.
type Record struct{ Type int }

// Result stands in for a statement result.
type Result struct{}

// Engine mirrors the real engine's owned references.
type Engine struct {
	Catalog *table.Catalog
	Models  *modelstore.Store
}

// mutate reproduces the real log-then-apply gate's shape; walgate accepts
// gated calls lexically inside the closure passed to it.
func (e *Engine) mutate(rec *Record, apply func() (*Result, error)) (*Result, error) {
	return apply()
}

func (e *Engine) execDropBad(name string) error {
	return e.Catalog.Drop(name) // want `Catalog\.Drop mutates engine state outside the WAL gate`
}

func (e *Engine) appendBad(t *table.Table, rows [][]interface{}) (int, error) {
	return t.AppendRows(rows) // want `Table\.AppendRows mutates engine state outside the WAL gate`
}

func (e *Engine) captureBad(t *table.Table, spec modelstore.Spec) error {
	_, err := e.Models.Capture(t, spec) // want `Store\.Capture mutates engine state outside the WAL gate`
	return err
}

// The live path: log first, then apply inside the mutate closure.
func (e *Engine) execDropGated(name string) (*Result, error) {
	return e.mutate(&Record{}, func() (*Result, error) {
		if err := e.Catalog.Drop(name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	})
}

// applyDrop is a replay function: it re-executes an already-logged record.
func (e *Engine) applyDrop(name string) error {
	return e.Catalog.Drop(name)
}

// applyAppend routes through a helper that is itself replay-named.
func (e *Engine) applyAppend(t *table.Table, rows [][]interface{}) (int, error) {
	return t.AppendRows(rows)
}

// loadSnapshot is the snapshot-recovery path that runs before the log attaches.
func (e *Engine) loadSnapshot(t *table.Table) error {
	return e.Catalog.Add(t)
}

// RegisterTable mirrors the real engine's documented pre-WAL escape hatch.
//
//lint:ignore walgate fixture mirrors RegisterTable, the documented pre-WAL escape hatch
func (e *Engine) RegisterTable(t *table.Table) error { return e.Catalog.Add(t) }

// Reads are never gated.
func (e *Engine) lookup(name string) (*table.Table, error) {
	return e.Catalog.Lookup(name)
}
