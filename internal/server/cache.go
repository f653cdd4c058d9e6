package server

import (
	"container/list"
	"sync"

	"github.com/mia-rt/mia/internal/engine"
)

// warmEntry is one worker's warm analysis state for one graph fingerprint: a
// warm analyzer over the shared compiled image. The analyzer's private order
// overlay is the committed checkpoint baseline; scenarios permute it and
// undo afterwards. An entry lives only in the cache of the worker that built
// it and is touched only on that worker's goroutine, so nothing here is
// synchronized and an eviction — which happens inside that same worker's
// add — can never land on an entry in use. The analyzer owns no goroutines
// (see Config.Sched), so an evicted entry is simply dropped. The image
// itself is immutable and shared by every worker's entry for the
// fingerprint.
type warmEntry struct {
	img *engine.Image
	w   engine.Warm
}

// lru is a fixed-capacity map keyed by graph fingerprint that drops its
// least recently used key once full. It is not synchronized: each worker's
// warm cache is confined to that worker, and the image registry wraps its
// own in a mutex.
type lru[V any] struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used; values are *lruItem[V]
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

// get returns the value stored under key, marking it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// add stores val under key unless key is already present, marks key most
// recently used, and returns the value now stored under it: the first
// registration wins. Past capacity the least recently used key is dropped.
func (c *lru[V]) add(key string, val V) V {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruItem[V]).val
	}
	c.entries[key] = c.order.PushFront(&lruItem[V]{key: key, val: val})
	if c.order.Len() > c.cap {
		delete(c.entries, c.order.Remove(c.order.Back()).(*lruItem[V]).key)
	}
	return val
}

// imageCache is the shared fingerprint → compiled-image registry. Analyze,
// batch and job requests populate it; reschedule-by-hash reads it when the
// serving worker has no warm entry yet (the graph bytes are not resent).
// Images are immutable, so every worker's warm entry for a fingerprint
// shares one image — the mutex only guards the LRU.
type imageCache struct {
	mu  sync.Mutex
	lru *lru[*engine.Image]
}

func (c *imageCache) get(hash string) (*engine.Image, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.get(hash)
}

// put registers img under hash and returns the canonical image for the
// fingerprint: when two requests compile the same graph concurrently, the
// first registration wins and both callers proceed on one shared image (the
// duplicate is dropped, so worker caches never hold divergent copies).
func (c *imageCache) put(hash string, img *engine.Image) *engine.Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.add(hash, img)
}

func (c *imageCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.order.Len()
}
