package table

import (
	"sync"

	"datalaws/internal/storage"
)

// DefaultChunkCacheBytes is the decoded-column cache's default byte budget.
// The budget bounds the decoded working set, not the table size: a scan over
// a table many times larger than the budget streams chunks through the cache
// and completes in bounded memory.
const DefaultChunkCacheBytes = 128 << 20

// chunkCache is a process-wide LRU of decoded column frames keyed by
// (chunk, column). A statement that reads two of a table's columns decodes
// and retains only those two, so the budget holds more of what is read. An
// entry's size is its column's decoded bytes (colRawBytes), and the entries
// form an intrusive doubly linked list, so an insert allocates only the
// entry. Entries evicted while a scan still holds their columns stay alive
// through the garbage collector; the cache only bounds what it retains. A
// decoded column larger than the whole budget is returned uncached, so
// retained bytes never exceed the budget.
type chunkCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	lru     cacheEntry // sentinel: lru.next is the most recently used
	entries map[colKey]*cacheEntry

	hits, misses, evictions    uint64
	frameDecodes, decodedBytes uint64
}

// colKey names one column frame of one sealed chunk.
type colKey struct {
	ch  *Chunk
	col int
}

type cacheEntry struct {
	key        colKey
	col        storage.Column
	size       int64
	prev, next *cacheEntry
}

var decodedCache = newChunkCache(DefaultChunkCacheBytes)

func newChunkCache(budget int64) *chunkCache {
	c := &chunkCache{budget: budget, entries: map[colKey]*cacheEntry{}}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// columns returns chunk ch's columns idx in a slice indexed by schema
// position; other positions are nil. Cached frames are served from the
// cache and the rest decoded outside the lock: concurrent misses on one
// frame may decode it twice, but only one result is retained. The read
// counts as one hit when every frame was cached and as one miss when it
// decoded any; a read of no columns counts nothing.
func (c *chunkCache) columns(ch *Chunk, idx []int) ([]storage.Column, error) {
	if len(idx) == 0 {
		return nil, nil
	}
	out := make([]storage.Column, len(ch.frames))
	missing := 0
	c.mu.Lock()
	for _, i := range idx {
		if e, ok := c.entries[colKey{ch, i}]; ok {
			c.moveToFront(e)
			out[i] = e.col
		} else {
			missing++
		}
	}
	if missing == 0 {
		c.hits++
		c.mu.Unlock()
		return out, nil
	}
	c.misses++
	c.mu.Unlock()

	var buf [4]int
	decoded := buf[:0] // the positions decoded here
	for _, i := range idx {
		if out[i] != nil {
			continue
		}
		col, err := ch.decodeColumn(i)
		if err != nil {
			return nil, err
		}
		out[i] = col
		decoded = append(decoded, i)
	}

	c.mu.Lock()
	for _, i := range decoded {
		size := int64(colRawBytes(out[i], ch.rows))
		c.frameDecodes++
		c.decodedBytes += uint64(size)
		key := colKey{ch, i}
		if _, ok := c.entries[key]; ok || size > c.budget {
			continue
		}
		e := &cacheEntry{key: key, col: out[i], size: size}
		c.entries[key] = e
		c.pushFront(e)
		c.used += size
	}
	c.evictLocked()
	c.mu.Unlock()
	return out, nil
}

func (c *chunkCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *chunkCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (c *chunkCache) moveToFront(e *cacheEntry) {
	if c.lru.next != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

// evictLocked drops least-recently-used entries until used ≤ budget; callers
// hold c.mu. Every entry fits the budget on its own (columns checks before
// inserting), so the newest survives unless the budget has shrunk.
func (c *chunkCache) evictLocked() {
	for c.used > c.budget {
		e := c.lru.prev
		c.unlink(e)
		delete(c.entries, e.key)
		c.used -= e.size
		c.evictions++
	}
}

func (c *chunkCache) setBudget(bytes int64) {
	c.mu.Lock()
	c.budget = bytes
	c.evictLocked()
	c.mu.Unlock()
}

func (c *chunkCache) stats() ChunkCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChunkCacheStats{
		Budget:       c.budget,
		Used:         c.used,
		Entries:      len(c.entries),
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		FrameDecodes: c.frameDecodes,
		DecodedBytes: c.decodedBytes,
	}
}

func (c *chunkCache) resetStats() {
	c.mu.Lock()
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.frameDecodes, c.decodedBytes = 0, 0
	c.mu.Unlock()
}

// ChunkCacheStats reports the decoded-column cache's occupancy and traffic.
// Hits and Misses count chunk reads, the unit the "selective scans decode
// few chunks" tests and the benchmark's decodes-per-op measure: a miss is a
// read that decoded at least one frame, a hit one that decoded none.
// FrameDecodes counts the column frames decoded and DecodedBytes their
// decoded size, so a read that needs fewer columns shows as fewer frames.
// Entries counts cached column frames.
type ChunkCacheStats struct {
	Budget       int64
	Used         int64
	Entries      int
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	FrameDecodes uint64
	DecodedBytes uint64
}

// SetChunkCacheBudget resizes the process-wide decoded-column cache,
// evicting immediately if the new budget is smaller. A budget of 0 disables
// caching (every sealed-chunk read decodes).
func SetChunkCacheBudget(bytes int64) { decodedCache.setBudget(bytes) }

// CacheStats returns the decoded-column cache counters.
func CacheStats() ChunkCacheStats { return decodedCache.stats() }

// ResetCacheStats zeroes the traffic counters (occupancy is kept); tests
// bracket a scan with it to measure decode traffic.
func ResetCacheStats() { decodedCache.resetStats() }
