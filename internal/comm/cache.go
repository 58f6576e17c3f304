package comm

import (
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
	// prev and next link the LRU list through slab indices (noSlot = -1);
	// next also links the free list.
	prev, next int32
}

// noSlot marks the end of an intrusive list.
const noSlot = -1

// cache is one locale's software cache for remote elements. Eviction is
// strict LRU through a list threaded through the entries themselves (no
// map iteration decides victims). Entries live in one slab; an eviction
// reuses its victim's slot, so a full cache allocates nothing per insert.
type cache struct {
	cap     int
	entries map[ckey]int32 // slab index of each resident entry
	slab    []centry
	// head is the most and tail the least recently used entry; free
	// lists the slots drop released.
	head, tail, free int32
}

func newCache(capacity int) *cache {
	return &cache{
		cap:     capacity,
		entries: make(map[ckey]int32),
		head:    noSlot,
		tail:    noSlot,
		free:    noSlot,
	}
}

// unlink removes slot i from the LRU list.
func (c *cache) unlink(i int32) {
	e := &c.slab[i]
	if e.prev != noSlot {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noSlot {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront makes slot i the most recently used entry.
func (c *cache) pushFront(i int32) {
	e := &c.slab[i]
	e.prev, e.next = noSlot, c.head
	if c.head != noSlot {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// has reports residency and touches the entry's recency.
func (c *cache) has(arr uint64, elem int64) bool {
	return c.get(arr, elem) != nil
}

// get returns the resident entry (touching recency) or nil. The pointer
// is valid until the next insert.
func (c *cache) get(arr uint64, elem int64) *centry {
	i, ok := c.entries[ckey{arr, elem}]
	if !ok {
		return nil
	}
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
	return &c.slab[i]
}

// insert adds an element copy, evicting the LRU entry when full. An
// evicted dirty entry is flushed immediately (one single-element message).
func (c *cache) insert(v *ir.Var, arr uint64, elem int64, home int, bytes int64, dirty bool, task int, r *Runtime) {
	if c.cap <= 0 {
		return
	}
	for len(c.entries) >= c.cap && c.tail != noSlot {
		i := c.tail
		victim := &c.slab[i]
		c.unlink(i)
		delete(c.entries, victim.key)
		r.stats.Evictions++
		if victim.dirty {
			r.send(Event{Kind: EvFlush, Var: victim.v, From: victim.home, To: c.loc(r), Bytes: victim.bytes, Elems: 1})
		}
		victim.next = c.free
		c.free = i
	}
	i := c.free
	if i != noSlot {
		c.free = c.slab[i].next
	} else {
		i = int32(len(c.slab))
		c.slab = append(c.slab, centry{})
	}
	c.slab[i] = centry{key: ckey{arr, elem}, v: v, home: home, bytes: bytes, dirty: dirty, task: task}
	c.pushFront(i)
	c.entries[ckey{arr, elem}] = i
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
	i, ok := c.entries[ckey{arr, elem}]
	if !ok {
		return false
	}
	c.unlink(i)
	delete(c.entries, ckey{arr, elem})
	c.slab[i].next = c.free
	c.free = i
	return true
}

// flushTask writes back the dirty entries owned by task (all tasks when
// task < 0) as coalesced runs: entries are sorted by (arr, elem) and
// contiguous same-home, same-array neighbors share one message.
func (c *cache) flushTask(task, loc int, r *Runtime) {
	var dirty []*centry
	for _, i := range c.entries {
		if e := &c.slab[i]; e.dirty && (task < 0 || e.task == task) {
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
