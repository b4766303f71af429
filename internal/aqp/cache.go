package aqp

import (
	"strings"
	"sync"
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
// re-created under the same name starts from zero. Published states are
// immutable, so ModelScans in flight never see their artifacts change.
type Cache struct {
	mu     sync.Mutex
	states map[stateKey]*domainState

	builds, rowsRead int
}

// stateKey names what one domain state enumerates; inputs are NUL-joined.
type stateKey struct{ table, group, inputs string }

func keyOf(t *table.Table, m *modelstore.CapturedModel) stateKey {
	return stateKey{t.Name, m.Spec.GroupBy, strings.Join(m.Model.Inputs, "\x00")}
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

// Get returns the domains and exact legal set of m's inputs over one view of
// t, and that view's version. It extends the cached state over the rows
// appended since it was built, or builds one from zero when there is none,
// when it describes another table of the same name, or when it covers more
// rows than the view. A nil cache builds from zero on every call.
func (c *Cache) Get(t *table.Table, m *modelstore.CapturedModel) ([]Domain, LegalSet, uint64, error) {
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
		base = newDomainState(m.Spec.GroupBy, m.Model.Inputs, DefaultMaxDistinct, &ExactLegalSet{})
		base.t = id
	}
	st := base
	if base != prev || base.rows < v.Rows() {
		st = base.extend(v)
		c.publish(key, st, base != prev, st.rows-base.rows)
	}
	doms, legal, err := st.result()
	return doms, legal, v.Version(), err
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

// Prime installs shipped artifacts for m over t's current rows, as if Get
// had enumerated them. Read replicas use it: their stub tables hold no rows,
// so the primary ships its enumerated domains and legal set with each model
// delta instead. Nil domains mark the inputs as not enumerable (the
// primary's enumeration failed).
func (c *Cache) Prime(t *table.Table, m *modelstore.CapturedModel, domains []Domain, legal LegalSet) {
	if c == nil {
		return
	}
	st := newDomainState(m.Spec.GroupBy, m.Model.Inputs, DefaultMaxDistinct, legal)
	st.t, st.rows = weak.Make(t), t.NumRows()
	if domains == nil {
		for i := range st.bad {
			st.bad[i] = true
		}
	} else {
		st.domains = domains
	}
	c.mu.Lock()
	c.states[keyOf(t, m)] = st
	c.mu.Unlock()
}
