package server

import (
	"fmt"
	"sync"
	"time"

	"datalaws"
	"datalaws/internal/aqp"
	"datalaws/internal/modelstore"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// ReplicaConfig tunes a model-shipping read replica.
type ReplicaConfig struct {
	// PollWait is how long each feed poll parks on the primary waiting for
	// deltas (the long-poll window). Default 1s.
	PollWait time.Duration
	// MaxDeltas caps deltas per poll reply; 0 takes the server default.
	MaxDeltas int
	// LagInflate widens WITH ERROR standard errors by this fraction per
	// second since the last successful feed poll, on top of the primary's
	// reported growth — so a replica cut off from its primary serves ever
	// more honest (wider) bounds instead of ever staler tight ones.
	// Default 0 (growth-only inflation).
	LagInflate float64
	// RedialBackoff bounds the reconnect backoff after a failed dial or a
	// torn feed; the first retry waits RedialBackoff/8, doubling up to the
	// bound. Default 2s.
	RedialBackoff time.Duration
	// Logf receives connection-lifecycle messages; nil discards them.
	Logf func(format string, args ...any)
}

func (c *ReplicaConfig) withDefaults() ReplicaConfig {
	out := ReplicaConfig{}
	if c != nil {
		out = *c
	}
	if out.PollWait <= 0 {
		out.PollWait = time.Second
	}
	if out.RedialBackoff <= 0 {
		out.RedialBackoff = 2 * time.Second
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Replicator keeps a replica engine's model catalog synchronized with a
// primary's changefeed: subscribe for the full catalog, then long-poll for
// deltas, installing each model (with its shipped planning artifacts) into
// the local store. It doubles as the engine's aqp.Inflator: the primary's
// reported growth plus measured feed lag widen every WITH ERROR bound the
// replica serves.
type Replicator struct {
	// cat/models are held directly rather than through the engine: a
	// replica has no WAL, deliberately — its durable state IS the
	// primary's changefeed, and a resync reconstructs everything — so the
	// feed-apply path writes below the engine's log-then-apply gate.
	cat    *table.Catalog
	models *modelstore.Store
	eng    *datalaws.Engine
	addr   string
	cfg    ReplicaConfig

	metrics *Metrics

	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	mu        sync.Mutex
	growth    map[string]float64
	lastSync  time.Time
	connected bool
	applied   uint64
	resyncs   uint64
}

// OpenReplica builds a model-only replica of the primary at addr: an engine
// with no rows and no WAL whose model store tracks the primary's
// changefeed. The engine rejects mutations and exact SELECTs with
// wireerr.ErrReplicaReadOnly and never falls back from APPROX to exact
// plans. Call Start on the returned Replicator to begin syncing (the
// engine answers queries before the first sync completes, with an empty
// catalog), and Stop to detach.
func OpenReplica(addr string, cfg *ReplicaConfig) (*datalaws.Engine, *Replicator) {
	eng := datalaws.NewEngine()
	r := &Replicator{
		cat:    eng.Catalog,
		models: eng.Models,
		eng:    eng,
		addr:   addr,
		cfg:    cfg.withDefaults(),
		done:   make(chan struct{}),
		growth: map[string]float64{},
	}
	eng.SetReplica(r)
	return eng, r
}

// UseMetrics publishes the replicator's gauges through a server metrics
// registry (the replica's own /metrics endpoint).
func (r *Replicator) UseMetrics(m *Metrics) {
	r.metrics = m
	m.WireReplica()
}

// Start launches the sync loop.
func (r *Replicator) Start() {
	r.startOnce.Do(func() {
		r.wg.Add(1)
		go r.run()
	})
}

// Stop terminates the sync loop and waits for it to exit. The engine keeps
// serving from its last-synced catalog, bounds widening with lag.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.done) })
	r.wg.Wait()
}

// InflationFor implements aqp.Inflator: the SE widening floor for one
// model's WITH ERROR bounds. 1 + growth + lag·LagInflate — growth is the
// primary's unmodeled-row fraction for this model from the last poll, lag
// the seconds since that poll. The planner combines this by max with its
// local growth factor (inert here: stub tables never grow).
func (r *Replicator) InflationFor(model string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := 1.0
	if g := r.growth[model]; g > 0 {
		f += g
	}
	if r.cfg.LagInflate > 0 && !r.lastSync.IsZero() {
		f += r.cfg.LagInflate * time.Since(r.lastSync).Seconds()
	}
	return f
}

// Lag reports the time since the last successful feed poll; ok is false
// before the first sync.
func (r *Replicator) Lag() (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastSync.IsZero() {
		return 0, false
	}
	return time.Since(r.lastSync), true
}

// Connected reports whether the feed link to the primary is currently up.
func (r *Replicator) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

// Stats reports deltas applied and full resyncs since Start.
func (r *Replicator) Stats() (applied, resyncs uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.resyncs
}

func (r *Replicator) setConnected(up bool) {
	r.mu.Lock()
	r.connected = up
	r.mu.Unlock()
	if r.metrics != nil {
		r.metrics.SetReplicaConnected(up)
	}
}

// run is the sync loop: dial, subscribe (full resync), poll until the link
// tears or the primary drains, redial with backoff. Exits on Stop.
func (r *Replicator) run() {
	defer r.wg.Done()
	defer r.setConnected(false)
	backoff := r.cfg.RedialBackoff / 8
	if backoff <= 0 {
		backoff = r.cfg.RedialBackoff
	}
	for {
		select {
		case <-r.done:
			return
		default:
		}
		cur, err := r.syncOnce()
		if err != nil {
			r.setConnected(false)
			r.cfg.Logf("replica: feed to %s down: %v (retry in %s)", r.addr, err, backoff)
			select {
			case <-r.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > r.cfg.RedialBackoff {
				backoff = r.cfg.RedialBackoff
			}
			continue
		}
		backoff = r.cfg.RedialBackoff / 8
		_ = cur
	}
}

// syncOnce runs one feed session: subscribe, apply the resync, then poll
// until an error (redial) or Stop. Returns nil only on Stop.
func (r *Replicator) syncOnce() (modelstore.Cursor, error) {
	var cur modelstore.Cursor
	c, err := Dial(r.addr)
	if err != nil {
		return cur, err
	}
	defer func() { _ = c.Close() }()
	batch, err := c.SubscribeModels()
	if err != nil {
		return cur, err
	}
	r.setConnected(true)
	if err := r.applyBatch(batch); err != nil {
		return cur, err
	}
	cur = modelstore.Cursor{Term: batch.Term, Seq: batch.Seq}
	for {
		select {
		case <-r.done:
			return cur, nil
		default:
		}
		batch, err := c.PollDeltas(cur.Term, cur.Seq, r.cfg.PollWait, r.cfg.MaxDeltas)
		if err != nil {
			return cur, err
		}
		if err := r.applyBatch(batch); err != nil {
			return cur, err
		}
		cur = modelstore.Cursor{Term: batch.Term, Seq: batch.Seq}
	}
}

// applyBatch installs one feed reply: on resync, models the batch does not
// mention are dropped first (they no longer exist on the primary); then
// each delta applies in feed order, and the growth/lag snapshot updates.
func (r *Replicator) applyBatch(b *DeltaBatch) error {
	if b.Resync {
		keep := make(map[string]bool, len(b.Deltas))
		for _, d := range b.Deltas {
			if d.Kind != modelstore.ChangeDrop {
				keep[d.Name] = true
			}
		}
		for _, m := range r.models.List() {
			if !keep[m.Spec.Name] {
				r.models.Uninstall(m.Spec.Name)
			}
		}
	}
	applied := 0
	for _, d := range b.Deltas {
		if err := r.applyDelta(d); err != nil {
			return fmt.Errorf("replica: applying %s %q: %w", d.Kind, d.Name, err)
		}
		applied++
	}
	r.mu.Lock()
	r.growth = b.Growth
	if r.growth == nil {
		r.growth = map[string]float64{}
	}
	r.lastSync = time.Now()
	r.applied += uint64(applied)
	if b.Resync {
		r.resyncs++
	}
	r.mu.Unlock()
	if r.metrics != nil {
		r.metrics.RecordReplicaSync()
		r.metrics.RecordDeltasApplied(applied)
		if b.Resync {
			r.metrics.RecordReplicaResync()
		}
	}
	return nil
}

// applyDelta installs or removes one model, registering its stub table and
// priming the planner caches with the shipped enumeration artifacts, so
// local planning finds them instead of scanning the (empty) stub.
func (r *Replicator) applyDelta(d ModelDelta) error {
	if d.Kind == modelstore.ChangeDrop {
		r.models.Uninstall(d.Name)
		return nil
	}
	if d.Model == nil {
		return fmt.Errorf("delta without model payload")
	}
	cm, err := modelstore.ModelFromRecord(*d.Model)
	if err != nil {
		return err
	}
	t, err := r.ensureStubTable(d.Table, cm.Spec.Table)
	if err != nil {
		return err
	}
	r.models.Install(cm)
	if t != nil {
		// Without an exact legal set from the primary, admit every grid
		// combination rather than none. d.Domains is nil unless DomainsOK.
		var legal aqp.LegalSet = aqp.AllowAll{}
		if d.LegalOK {
			legal = aqp.LegalSetFromCombos(d.LegalGroups, d.LegalInputs, d.LegalWidth)
		}
		r.eng.AQPOptions().Cache.Prime(t, cm, d.Domains, legal)
	}
	return nil
}

// ensureStubTable registers the zero-row table a shipped model binds
// against (partitioned families register the whole parent, so every
// sibling child exists once the first family member arrives). The stub
// never receives rows, so a primed domain state stays valid until the next
// delta re-primes it.
func (r *Replicator) ensureStubTable(tm *TableMeta, name string) (*table.Table, error) {
	if t, ok := r.cat.Get(name); ok {
		return t, nil
	}
	if tm == nil {
		// The primary's table vanished between publish and ship; the model
		// still installs, but without a table the planner cannot bind it.
		return nil, nil
	}
	defs := make([]table.ColumnDef, len(tm.Cols))
	for i, c := range tm.Cols {
		defs[i] = table.ColumnDef{Name: c.Name, Type: storage.ColType(c.Type)}
	}
	schema, err := table.NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	if tm.Parent != "" {
		ranges := make([]table.RangePartition, len(tm.Ranges))
		for i, rg := range tm.Ranges {
			ranges[i] = table.RangePartition{Name: rg.Name, Upper: rg.Upper, Max: rg.Max}
		}
		if _, err := r.cat.CreatePartitioned(tm.Parent, schema, tm.Column, ranges); err != nil {
			return nil, err
		}
		t, ok := r.cat.Get(name)
		if !ok {
			return nil, fmt.Errorf("partition child %q missing after creating %q", name, tm.Parent)
		}
		return t, nil
	}
	return r.cat.Create(name, schema)
}
