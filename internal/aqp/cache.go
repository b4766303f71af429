package aqp

import (
	"fmt"
	"sync"

	"datalaws/internal/modelstore"
	"datalaws/internal/table"
)

// Cache memoizes the expensive per-plan artifacts of approximate planning —
// enumerated input domains and legal-combination sets — keyed by model
// identity/version and table version, so repeated APPROX queries against
// unchanged data skip the table scans that build them. Appends bump the
// table version and naturally invalidate stale entries.
type Cache struct {
	mu      sync.Mutex
	domains map[string]cachedDomains
	legal   map[string]cachedLegal

	hits, misses int
}

type cachedDomains struct {
	tableVersion uint64
	domains      []Domain
}

type cachedLegal struct {
	tableVersion uint64
	legal        LegalSet
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{domains: map[string]cachedDomains{}, legal: map[string]cachedLegal{}}
}

// Stats reports cache effectiveness.
func (c *Cache) Stats() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// modelKey identifies one version of a model; a refit changes it, so the
// old version's artifacts are never served for the new one.
func modelKey(m *modelstore.CapturedModel) string {
	return fmt.Sprintf("%s|v%d", m.Spec.Name, m.Version)
}

// Domains returns (possibly cached) enumerated domains for the model's
// inputs as of view v. The entry is stamped with the version of the view the
// data was read from, never with a separately read table version. The
// server's delta builder calls it too, so shipped domains reuse the
// planner's cache.
func (c *Cache) Domains(v *table.ChunkView, m *modelstore.CapturedModel) ([]Domain, error) {
	if c == nil {
		return DomainsFor(v, m.Model.Inputs, DefaultMaxDistinct)
	}
	key := modelKey(m)
	c.mu.Lock()
	if e, ok := c.domains[key]; ok && e.tableVersion == v.Version() {
		c.hits++
		c.mu.Unlock()
		return e.domains, nil
	}
	c.misses++
	c.mu.Unlock()
	doms, err := DomainsFor(v, m.Model.Inputs, DefaultMaxDistinct)
	if err != nil {
		return nil, err
	}
	c.PrimeDomains(v, m, doms)
	return doms, nil
}

// PrimeDomains installs precomputed domains for the model at the view's
// version, as if Domains had built them locally. Read replicas use it: their
// stub tables hold zero rows, so a local enumeration would yield empty
// domains (and silently empty grids) — the primary ships its enumerated
// domains with each model delta instead. The stub table's version never
// changes, so a primed entry stays valid until the next delta re-primes it.
func (c *Cache) PrimeDomains(v *table.ChunkView, m *modelstore.CapturedModel, domains []Domain) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.domains[modelKey(m)] = cachedDomains{tableVersion: v.Version(), domains: domains}
	c.mu.Unlock()
}

// Legal returns a (possibly cached) legal set for the model as of view v —
// the legal-set counterpart of Domains. The planner's set is always exact;
// BuildLegalSet's Bloom form is for callers that price the compressed set.
func (c *Cache) Legal(v *table.ChunkView, m *modelstore.CapturedModel) (LegalSet, error) {
	if c == nil {
		return BuildLegalSet(v, m.Spec.GroupBy, m.Model.Inputs, false, 0)
	}
	key := modelKey(m)
	c.mu.Lock()
	if e, ok := c.legal[key]; ok && e.tableVersion == v.Version() {
		c.hits++
		c.mu.Unlock()
		return e.legal, nil
	}
	c.misses++
	c.mu.Unlock()
	ls, err := BuildLegalSet(v, m.Spec.GroupBy, m.Model.Inputs, false, 0)
	if err != nil {
		return nil, err
	}
	c.PrimeLegal(v, m, ls)
	return ls, nil
}

// PrimeLegal installs a precomputed legal set for the model at the view's
// version — the legal-set counterpart of PrimeDomains.
func (c *Cache) PrimeLegal(v *table.ChunkView, m *modelstore.CapturedModel, legal LegalSet) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.legal[modelKey(m)] = cachedLegal{tableVersion: v.Version(), legal: legal}
	c.mu.Unlock()
}
