package server

import (
	"fmt"
	"sync"
	"time"

	"datalaws"
	"datalaws/internal/modelstore"
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
	// Logf receives connection-lifecycle messages; nil discards them.
	Logf func(format string, args ...any)
}

// redialBackoff bounds the reconnect backoff after a failed dial or a torn
// feed; the first retry waits an eighth of it, doubling up to the bound.
const redialBackoff = 2 * time.Second

func (c *ReplicaConfig) withDefaults() ReplicaConfig {
	out := ReplicaConfig{}
	if c != nil {
		out = *c
	}
	if out.PollWait <= 0 {
		out.PollWait = time.Second
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Replicator keeps a replica engine's model catalog synchronized with a
// primary's changefeed: subscribe for the full catalog, then long-poll for
// deltas, installing each model into the local store and extending the
// planner's domain states by the shipped increments. It doubles as the
// engine's aqp.Inflator: the primary's reported growth plus measured feed
// lag widen every WITH ERROR bound the replica serves.
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
	now       func() time.Time // the clock lag is read from: time.Now outside tests
	growth    map[string]float64
	lastSync  time.Time
	connected bool
	syncs     uint64 // feed replies applied
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
		now:    time.Now,
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
		f += r.cfg.LagInflate * r.now().Sub(r.lastSync).Seconds()
	}
	return f
}

// Connected reports whether the feed link to the primary is currently up.
func (r *Replicator) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

// Stats reports feed replies applied and full resyncs since Start.
func (r *Replicator) Stats() (syncs, resyncs uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.syncs, r.resyncs
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
	backoff := redialBackoff / 8
	for {
		select {
		case <-r.done:
			return
		default:
		}
		if err := r.syncOnce(); err != nil {
			r.setConnected(false)
			r.cfg.Logf("replica: feed to %s down: %v (retry in %s)", r.addr, err, backoff)
			select {
			case <-r.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > redialBackoff {
				backoff = redialBackoff
			}
			continue
		}
		backoff = redialBackoff / 8
	}
}

// syncOnce runs one feed session: subscribe, apply the resync, then poll
// until an error (redial) or Stop. Returns nil only on Stop.
func (r *Replicator) syncOnce() error {
	c, err := Dial(r.addr)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	batch, err := c.SubscribeModels()
	if err != nil {
		return err
	}
	r.setConnected(true)
	for {
		if err := r.applyBatch(batch); err != nil {
			return err
		}
		select {
		case <-r.done:
			return nil
		default:
		}
		if batch, err = c.PollDeltas(batch.Term, batch.Seq, r.cfg.PollWait, r.cfg.MaxDeltas); err != nil {
			return err
		}
	}
}

// applyBatch installs one feed reply: on resync, models the batch does not
// mention are dropped first (they no longer exist on the primary); then
// each delta applies in feed order, then each domain increment, and the
// growth/lag snapshot updates. A malformed reply is an error, never a
// panic, and the caller redials and resyncs.
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
	for i := range b.Increments {
		if err := r.applyIncrement(&b.Increments[i]); err != nil {
			return fmt.Errorf("replica: applying increment for %q: %w", b.Increments[i].Model, err)
		}
	}
	r.mu.Lock()
	r.growth = b.Growth // read only; a nil map reads as no growth
	r.lastSync = r.now()
	r.syncs++
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

// applyDelta installs or removes one model, registering its stub table.
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
	if err := r.ensureStubTable(d.Table, cm.Spec.Table); err != nil {
		return err
	}
	r.models.Install(cm)
	return nil
}

// applyIncrement extends the planner's domain state of the named model's
// inputs, the one local planning binds against instead of enumerating the
// (empty) stub.
func (r *Replicator) applyIncrement(inc *DomainIncrement) error {
	m, ok := r.models.Get(inc.Model)
	if !ok {
		return fmt.Errorf("no such model")
	}
	t, ok := r.cat.Get(m.Spec.Table)
	if !ok {
		// The model shipped without its table: nothing binds against it.
		return nil
	}
	return r.eng.AQPOptions().Cache.Apply(t, m, &inc.Increment)
}

// ensureStubTable registers the zero-row table a shipped model binds
// against (partitioned families register the whole parent, so every
// sibling child exists once the first family member arrives). The stub
// never receives rows; the shipped increments stand in for them.
func (r *Replicator) ensureStubTable(d *table.Decl, name string) error {
	if _, ok := r.cat.Get(name); ok || d == nil {
		// A nil declaration: the primary's table vanished between publish
		// and ship; the model still installs, but the planner cannot bind it.
		return nil
	}
	if err := r.cat.Declare(*d); err != nil {
		return err
	}
	if _, ok := r.cat.Get(name); !ok {
		return fmt.Errorf("table %q missing after declaring %q", name, d.Name)
	}
	return nil
}
