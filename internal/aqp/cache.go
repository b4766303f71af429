package aqp

import (
	"strings"
	"sync"
	"sync/atomic"
	"weak"

	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

// Cache holds one domain state per (table, group column, input columns):
// the enumerated input domains and exact legal set approximate plans bind
// models against. An append does not invalidate a state: the next Get
// extends it over the appended rows, reading only the chunks that hold
// them. A refit keeps it, because domains and legal combinations depend on
// the rows and columns, not on fitted parameters; a table dropped and
// re-created under the same name starts from zero. On a read replica, the
// increments its primary ships extend the states instead (Apply). Published
// states are immutable, so ModelScans in flight never see their artifacts
// change.
type Cache struct {
	mu      sync.Mutex
	states  map[stateKey]*domainState
	applied atomic.Uint64 // increments Apply installed; a prepared plan rebinds when it moves

	builds, rowsRead int
}

// stateKey names what one domain state enumerates; inputs are NUL-joined.
type stateKey struct{ table, group, inputs string }

func keyOf(t *table.Table, m *modelstore.CapturedModel) stateKey {
	return stateKey{t.Name, m.Spec.GroupBy, strings.Join(m.Model.Inputs, "\x00")}
}

// emptyState is the state of m's inputs over no rows of table t.
func emptyState(t weak.Pointer[table.Table], m *modelstore.CapturedModel) *domainState {
	st := newDomainState(m.Spec.GroupBy, m.Model.Inputs, DefaultMaxDistinct, &ExactLegalSet{})
	st.t = t
	return st
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{states: map[stateKey]*domainState{}}
}

// Stats reports how many states were built from zero and how many table
// rows builds and extensions read in total.
func (c *Cache) Stats() (builds, rowsRead int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds, c.rowsRead
}

func (c *Cache) appliedCount() uint64 {
	if c == nil {
		return 0
	}
	return c.applied.Load()
}

// Get returns the domains and exact legal set of m's inputs over one view of
// t, and that view's version. It extends the cached state over the rows
// appended since it was built, or builds one from zero when there is none,
// when it describes another table of the same name, or when it covers more
// rows than the view. A nil cache builds from zero on every call.
func (c *Cache) Get(t *table.Table, m *modelstore.CapturedModel) ([]Domain, *ExactLegalSet, uint64, error) {
	st, v := c.state(t, m)
	doms, legal, err := st.result()
	return doms, legal, v.Version(), err
}

// state returns the state Get describes and the view it covers exactly.
func (c *Cache) state(t *table.Table, m *modelstore.CapturedModel) (*domainState, *table.ChunkView) {
	key, id := keyOf(t, m), weak.Make(t)
	var prev *domainState
	if c != nil {
		c.mu.Lock()
		prev = c.states[key]
		c.mu.Unlock()
	}
	// Captured after the load, so it holds every row prev covers.
	v := t.Chunks()
	base := prev
	if base == nil || base.t != id || base.rows > v.Rows() {
		base = emptyState(id, m)
	}
	st := base
	if base != prev || base.rows < v.Rows() {
		st = base.extend(v)
		c.publish(key, st, base != prev, st.rows-base.rows)
	}
	return st, v
}

// publish installs st unless a concurrent Get already installed a state of
// the same table covering at least as many rows.
func (c *Cache) publish(key stateKey, st *domainState, built bool, read int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if built {
		c.builds++
	}
	c.rowsRead += read
	if cur := c.states[key]; cur == nil || cur.t != st.t || cur.rows < st.rows {
		c.states[key] = st
	}
}

// Apply extends a read replica's state of m's inputs over its stub table t
// by an increment the primary shipped. The stub holds no rows, so the state
// covers none of t's (Get never rebuilds it) and counts the primary's rows
// instead: inc must start at that count, or at row 0 to replace the state.
func (c *Cache) Apply(t *table.Table, m *modelstore.CapturedModel, inc *Increment) error {
	if c == nil {
		return nil
	}
	key, id := keyOf(t, m), weak.Make(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.states[key]
	if inc.From == 0 || base == nil || base.t != id {
		base = emptyState(id, m)
	}
	if err := base.check(inc); err != nil {
		return err
	}
	c.states[key] = base.apply(inc)
	c.applied.Add(1)
	return nil
}

// Feed is a primary's record of the states it shipped to one replica, so
// that each increment carries only what the rows appended since the last
// add. An empty Feed has shipped nothing: its increments start at row 0.
type Feed map[stateKey]*domainState

// Next returns the increment that brings the replica's state of m's inputs
// over t up to t's rows, read through the primary's cache c, or false when
// the replica holds them already. A table re-created under the same name
// starts again from row 0.
func (f Feed) Next(c *Cache, t *table.Table, m *modelstore.CapturedModel) (Increment, bool) {
	cur, v := c.state(t, m)
	key := keyOf(t, m)
	prev := f[key]
	if prev == nil || prev.t != cur.t || prev.rows > cur.rows {
		prev = emptyState(cur.t, m)
	} else if prev.rows == cur.rows {
		return Increment{}, false
	}
	f[key] = cur
	return prev.diff(v), true
}
