package archive

import "sync"

// lruCache is an LRU cache of decoded blocks or segment footers, keyed
// by file name and byte offset. Segment files are write-once (published
// by rename, never rewritten), so a key names immutable content and
// entries never need invalidation. Cached values are immutable and may
// be shared by concurrent readers.
type lruCache[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*cacheEntry[V]
	// Intrusive doubly-linked LRU list; head.next is most recent.
	head cacheEntry[V]
}

// cacheKey names one block of a segment file by its frame's offset, or
// the segment's footer (offset 0 in the footer cache).
type cacheKey struct {
	name string
	off  int64
}

type cacheEntry[V any] struct {
	key        cacheKey
	val        *V
	prev, next *cacheEntry[V]
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	c := &lruCache[V]{cap: capacity, entries: make(map[cacheKey]*cacheEntry[V], capacity)}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

func (c *lruCache[V]) unlink(e *cacheEntry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *lruCache[V]) pushFront(e *cacheEntry[V]) {
	e.next = c.head.next
	e.prev = &c.head
	e.next.prev = e
	c.head.next = e
}

// get returns the cached value for key, promoting it to most recent.
func (c *lruCache[V]) get(key cacheKey) (*V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// put inserts a value, evicting the least recently used entry when the
// cache is full.
func (c *lruCache[V]) put(key cacheKey, v *V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = v
		c.unlink(e)
		c.pushFront(e)
		return
	}
	for len(c.entries) >= c.cap {
		lru := c.head.prev
		c.unlink(lru)
		delete(c.entries, lru.key)
	}
	e := &cacheEntry[V]{key: key, val: v}
	c.entries[key] = e
	c.pushFront(e)
}
