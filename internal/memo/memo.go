// Package memo is the repository's one memo layer. Every pure,
// deterministic derivation that is worth sharing across calls — a
// compiled program, its blame analysis, its per-instruction cost table,
// its unmonitored run, a built native runner, an experiment table's
// profile — is memoized in a Map, so all of them share one bound and
// one failure policy:
//
//   - concurrent lookups of one key fill it once; the others wait;
//   - a fill that returns an error or panics is dropped, never memoized,
//     and a waiter that saw it retries with its own fill (a derivation
//     whose failure is deterministic returns it inside V instead);
//   - a Map holds at most Max entries, evicting an arbitrary one to make
//     room.
//
// Keys that hold a program pointer pin that program, its IR and
// everything derived from it, so the bound is what keeps a long-running
// daemon fed arbitrary sources from keeping every program it has seen.
package memo

import "sync"

// Max bounds every Map. A full paperbench run peaks well below it (40
// memoized unmonitored runs, the largest map), so no table or workload
// evicts.
const Max = 256

// Map memoizes fills of V by key. The zero value is empty and ready to
// use; New also registers the map for Sizes.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

type entry[V any] struct {
	done chan struct{} // closed when the fill returns or panics
	v    V
	ok   bool // the fill succeeded; v is memoized
}

// registry holds every Map made with New, by name.
var registry = struct {
	sync.Mutex
	lens map[string]func() int
}{lens: make(map[string]func() int)}

// New returns an empty Map registered under name, so Sizes reports it.
func New[K comparable, V any](name string) *Map[K, V] {
	m := &Map[K, V]{}
	registry.Lock()
	registry.lens[name] = m.Len
	registry.Unlock()
	return m
}

// Sizes returns the current entry count of every Map made with New, by
// name.
func Sizes() map[string]int {
	registry.Lock()
	defer registry.Unlock()
	out := make(map[string]int, len(registry.lens))
	for name, n := range registry.lens {
		out[name] = n()
	}
	return out
}

// Get returns k's memoized value, calling fill to compute it on a miss.
// Concurrent misses on one key call fill once. An error or panic from
// fill reaches the caller that ran it and leaves nothing behind; callers
// that were waiting on that fill retry with their own.
func (c *Map[K, V]) Get(k K, fill func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		e, ok := c.m[k]
		if !ok {
			if c.m == nil {
				c.m = make(map[K]*entry[V])
			}
			if len(c.m) >= Max {
				for old := range c.m { // evict an arbitrary entry
					delete(c.m, old)
					break
				}
			}
			e = &entry[V]{done: make(chan struct{})}
			c.m[k] = e
			c.mu.Unlock()
			return c.fill(k, e, fill)
		}
		c.mu.Unlock()
		<-e.done
		if e.ok {
			return e.v, nil
		}
	}
}

// fill runs f for e, dropping e unless f succeeds. The deferred cleanup
// also runs when f panics, so the panic propagates with no entry left
// holding a zero value.
func (c *Map[K, V]) fill(k K, e *entry[V], f func() (V, error)) (V, error) {
	defer func() {
		if !e.ok {
			c.mu.Lock()
			if c.m[k] == e {
				delete(c.m, k)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	v, err := f()
	if err == nil {
		e.v, e.ok = v, true
	}
	return v, err
}

// Len returns the number of entries, including fills in flight.
func (c *Map[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every entry. Fills in flight complete for their callers
// but are not kept.
func (c *Map[K, V]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}
