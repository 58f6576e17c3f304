package comm

import (
	"container/list"
	"sort"

	"repro/internal/ir"
)

// ckey identifies one cached remote element.
type ckey struct {
	arr  uint64
	elem int64
}

// centry is one cached element copy.
type centry struct {
	key   ckey
	v     *ir.Var // owning variable (message attribution)
	home  int
	bytes int64
	dirty bool
	task  int // last writer (dirty entries)
	lru   *list.Element
}

// cache is one locale's software cache for remote elements. Eviction is
// strict LRU (container/list keeps it deterministic: no map iteration
// decides victims).
type cache struct {
	cap     int
	entries map[ckey]*centry
	order   *list.List // front = most recently used; values are *centry
}

func newCache(capacity int) *cache {
	return &cache{
		cap:     capacity,
		entries: make(map[ckey]*centry),
		order:   list.New(),
	}
}

// has reports residency and touches the entry's recency.
func (c *cache) has(arr uint64, elem int64) bool {
	return c.get(arr, elem) != nil
}

// get returns the resident entry (touching recency) or nil.
func (c *cache) get(arr uint64, elem int64) *centry {
	e, ok := c.entries[ckey{arr, elem}]
	if !ok {
		return nil
	}
	c.order.MoveToFront(e.lru)
	return e
}

// insert adds an element copy, evicting the LRU entry when full. An
// evicted dirty entry is flushed immediately (one single-element message).
func (c *cache) insert(v *ir.Var, arr uint64, elem int64, home int, bytes int64, dirty bool, task int, r *Runtime) {
	if c.cap <= 0 {
		return
	}
	for len(c.entries) >= c.cap {
		back := c.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*centry)
		c.order.Remove(back)
		delete(c.entries, victim.key)
		r.stats.Evictions++
		if victim.dirty {
			r.send(Event{Kind: EvFlush, Var: victim.v, From: victim.home, To: c.loc(r), Bytes: victim.bytes, Elems: 1})
		}
	}
	e := &centry{key: ckey{arr, elem}, v: v, home: home, bytes: bytes, dirty: dirty, task: task}
	e.lru = c.order.PushFront(e)
	c.entries[e.key] = e
}

// loc finds this cache's locale index (only needed on the rare eviction
// path, so a linear scan over a handful of locales is fine).
func (c *cache) loc(r *Runtime) int {
	for i, x := range r.caches {
		if x == c {
			return i
		}
	}
	return 0
}

// drop removes a copy (invalidation). Returns whether one was resident.
func (c *cache) drop(arr uint64, elem int64) bool {
	e, ok := c.entries[ckey{arr, elem}]
	if !ok {
		return false
	}
	c.order.Remove(e.lru)
	delete(c.entries, e.key)
	return true
}

// flushTask writes back the dirty entries owned by task (all tasks when
// task < 0) as coalesced runs: entries are sorted by (arr, elem) and
// contiguous same-home, same-array neighbors share one message.
func (c *cache) flushTask(task, loc int, r *Runtime) {
	var dirty []*centry
	for _, e := range c.entries {
		if e.dirty && (task < 0 || e.task == task) {
			dirty = append(dirty, e)
		}
	}
	if len(dirty) == 0 {
		return
	}
	sort.Slice(dirty, func(i, j int) bool {
		if dirty[i].key.arr != dirty[j].key.arr {
			return dirty[i].key.arr < dirty[j].key.arr
		}
		return dirty[i].key.elem < dirty[j].key.elem
	})
	flushRun := func(run []*centry) {
		if len(run) == 0 {
			return
		}
		var bytes int64
		for _, e := range run {
			bytes += e.bytes
			e.dirty = false
		}
		r.send(Event{Kind: EvFlush, Var: run[0].v, From: run[0].home, To: loc, Bytes: bytes, Elems: int64(len(run))})
	}
	start := 0
	for i := 1; i <= len(dirty); i++ {
		if i < len(dirty) &&
			dirty[i].key.arr == dirty[start].key.arr &&
			dirty[i].key.elem == dirty[i-1].key.elem+1 &&
			dirty[i].home == dirty[start].home {
			continue
		}
		flushRun(dirty[start:i])
		start = i
	}
}
