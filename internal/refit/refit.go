// Package refit closes the paper's capture loop for live data: once a law
// is harvested, the data keeps changing underneath it, and a model validated
// once against a frozen table silently goes stale. The Refitter watches
// ingestion, feeds every appended row through the drift detector (residuals
// standardized against each model's stored ResidualSE), and when a model's
// law no longer holds — or the table simply outgrew the fit — re-fits it in
// the background: warm-started from the previous parameters, on a consistent
// table snapshot, off the query path, with the new version swapped in
// atomically. Prepared approximate plans revalidate model versions per Bind,
// so queries pick up the refit model transparently.
package refit

import (
	"sync"
	"time"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

// Event records one refit attempt.
type Event struct {
	Model      string
	Table      string
	Trigger    string // "drift" or "growth"
	OldVersion int
	NewVersion int // 0 when the refit failed
	Err        error
	Took       time.Duration
}

// Options configures a Refitter.
type Options struct {
	// Drift tunes the staleness thresholds (zero fields take defaults).
	Drift modelstore.DriftConfig
	// Interval is the periodic sweep fallback for drift that arrives through
	// side channels (direct table writes that bypass ObserveAppend). 0
	// disables the ticker; the refitter then reacts to ObserveAppend only.
	Interval time.Duration
	// OnEvent, when non-nil, observes every refit attempt (after the swap).
	// It is called from the refitter goroutine; keep it cheap.
	OnEvent func(Event)
	// FailureBackoff is the base cooldown after a failed refit; the model is
	// not re-attempted until it elapses, and it doubles per consecutive
	// failure (capped at 32×). Without it, a model whose refit fails
	// persistently (e.g. a NULL landed in an input column) would re-run a
	// full-table fit on every ingest nudge. Default 30s.
	FailureBackoff time.Duration
}

// Refitter is the background maintenance loop. Create with New, feed appends
// through ObserveAppend, Start the worker, Close on shutdown. All methods
// are safe for concurrent use.
type Refitter struct {
	cat   *table.Catalog
	store *modelstore.Store
	det   *modelstore.DriftDetector
	opts  Options

	nudge chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	started  bool
	closed   bool
	sweeping sync.Mutex // serializes Sweep between worker and direct callers

	failMu sync.Mutex
	fails  map[string]failState // per-model consecutive-failure backoff
}

type failState struct {
	count int
	until time.Time
}

// New builds a refitter over a catalog and model store.
func New(cat *table.Catalog, store *modelstore.Store, opts Options) *Refitter {
	if opts.FailureBackoff <= 0 {
		opts.FailureBackoff = 30 * time.Second
	}
	return &Refitter{
		cat:   cat,
		store: store,
		det:   modelstore.NewDriftDetector(opts.Drift),
		opts:  opts,
		nudge: make(chan struct{}, 1),
		done:  make(chan struct{}),
		fails: map[string]failState{},
	}
}

// Detector exposes the drift detector (for introspection and tests).
func (r *Refitter) Detector() *modelstore.DriftDetector { return r.det }

// ObserveAppend accounts freshly appended rows against every model captured
// on the table, then nudges the worker. The residual math is a compiled
// model evaluation per (row, model) — cheap enough to run on the ingest
// path, and what makes drift visible within a batch rather than a sweep.
func (r *Refitter) ObserveAppend(tableName string, schema *table.Schema, rows [][]expr.Value) {
	if len(rows) == 0 {
		return
	}
	for _, m := range r.store.ForTable(tableName) {
		r.det.Observe(m, schema, rows)
	}
	select {
	case r.nudge <- struct{}{}:
	default:
	}
}

// Reset drops accumulated drift evidence and failure backoff for a model
// (call after a manual REFIT or DROP so stale evidence cannot trigger a
// pointless refit, and so a model fixed by hand is retried promptly).
func (r *Refitter) Reset(name string) {
	r.det.Reset(name)
	r.failMu.Lock()
	delete(r.fails, name)
	r.failMu.Unlock()
}

// Check reports the current staleness verdict for a model without acting.
func (r *Refitter) Check(m *modelstore.CapturedModel) modelstore.DriftReport {
	t, _ := r.cat.Get(m.Spec.Table)
	return r.det.Check(m, t)
}

// Start launches the background worker. Calling Start twice is a no-op.
func (r *Refitter) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.closed {
		return
	}
	r.started = true
	r.wg.Add(1)
	go r.run()
}

// Close stops the worker and waits for an in-flight sweep to finish. It is
// idempotent.
func (r *Refitter) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	started := r.started
	r.mu.Unlock()
	close(r.done)
	if started {
		r.wg.Wait()
	}
}

func (r *Refitter) run() {
	defer r.wg.Done()
	var tick <-chan time.Time
	if r.opts.Interval > 0 {
		t := time.NewTicker(r.opts.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-r.done:
			return
		case <-r.nudge:
		case <-tick:
		}
		r.Sweep()
	}
}

// Sweep checks every captured model and re-fits the stale ones, returning
// one event per refit attempted. It is what the worker runs on each nudge,
// exposed for synchronous use (tests, REPL \refit): sweeps are serialized,
// so a direct call cannot race the background worker into double-fitting.
func (r *Refitter) Sweep() []Event {
	r.sweeping.Lock()
	defer r.sweeping.Unlock()
	var events []Event
	for _, m := range r.store.List() {
		select {
		case <-r.done:
			return events
		default:
		}
		t, ok := r.cat.Get(m.Spec.Table)
		if !ok {
			continue
		}
		rep := r.det.Check(m, t)
		if !rep.Stale() || r.inBackoff(m.Spec.Name) {
			continue
		}
		events = append(events, r.refitOne(m, t, rep.Trigger))
	}
	return events
}

// inBackoff reports whether a model's last refit failed recently enough
// that another attempt should wait.
func (r *Refitter) inBackoff(name string) bool {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	fs, ok := r.fails[name]
	return ok && time.Now().Before(fs.until)
}

func (r *Refitter) recordOutcome(name string, err error) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if err == nil {
		delete(r.fails, name)
		return
	}
	fs := r.fails[name]
	fs.count++
	backoff := r.opts.FailureBackoff << min(fs.count-1, 5)
	fs.until = time.Now().Add(backoff)
	r.fails[name] = fs
}

func (r *Refitter) refitOne(m *modelstore.CapturedModel, t *table.Table, trigger string) Event {
	start := time.Now()
	ev := Event{Model: m.Spec.Name, Table: m.Spec.Table, Trigger: trigger, OldVersion: m.Version}
	//lint:ignore walgate background refits are deliberately unlogged; models are derived state rebuilt from replayed data (see wal_engine.go)
	nm, err := r.store.Refit(m.Spec.Name, t)
	ev.Took = time.Since(start)
	if err != nil {
		ev.Err = err
	} else {
		ev.NewVersion = nm.Version
	}
	// Evidence against the old version is obsolete on success (the version
	// changed); on failure, resetting plus the failure backoff prevents a
	// hot refit loop — growth-triggered staleness would otherwise re-fire on
	// every sweep until the failure's cause is fixed.
	r.det.Reset(m.Spec.Name)
	r.recordOutcome(m.Spec.Name, err)
	if r.opts.OnEvent != nil {
		r.opts.OnEvent(ev)
	}
	return ev
}
