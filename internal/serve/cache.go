package serve

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// Cache is the sharded, content-addressed outcome cache: the server-wide
// generalization of compile.SourceCached / core.AnalyzeCached. Where
// those memoize one pipeline stage keyed by (source, stage options),
// this caches whole rendered Outcomes keyed by Request.Key() — a hash
// over the source text and every semantic knob (locales, comm mode,
// fault spec/seed, analysis options, view), so no two requests with
// different semantics can alias an entry.
//
// Where the memos bound entries (memo.Max), a serving cache must bound
// bytes: each shard keeps an LRU list and evicts from the cold end once
// its byte budget is exceeded. Sharding keeps lock hold times short under
// concurrent sessions; a key's shard is fixed by its hash, so per-shard
// LRU order is still exact for the keys it owns.
type Cache struct {
	shards []cacheShard
	mask   uint32
}

type cacheShard struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  string
	out  *Outcome
	size int64
}

// CacheStats is the aggregated counter snapshot across shards.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate is hits / (hits + misses), 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewCache builds a cache bounded at totalBytes split over shards
// (rounded up to a power of two; 0 picks 16). totalBytes <= 0 selects a
// 256 MiB default.
func NewCache(totalBytes int64, shards int) *Cache {
	if totalBytes <= 0 {
		totalBytes = 256 << 20
	}
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	per := totalBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.maxBytes = per
		s.ll = list.New()
		s.entries = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()&c.mask]
}

// Get returns the cached outcome for key and marks it most recently
// used.
func (c *Cache) Get(key string) (*Outcome, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

// Put inserts (or refreshes) an outcome and evicts cold entries until
// the shard fits its byte budget again. An outcome larger than the
// whole shard budget is not cached.
func (c *Cache) Put(key string, out *Outcome) {
	size := out.sizeBytes()
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if size > s.maxBytes {
		return
	}
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += size - e.size
		e.out, e.size = out, size
		s.ll.MoveToFront(el)
	} else {
		s.entries[key] = s.ll.PushFront(&cacheEntry{key: key, out: out, size: size})
		s.bytes += size
	}
	for s.bytes > s.maxBytes {
		cold := s.ll.Back()
		if cold == nil {
			break
		}
		e := cold.Value.(*cacheEntry)
		s.ll.Remove(cold)
		delete(s.entries, e.key)
		s.bytes -= e.size
		s.evictions++
	}
}

// Stats aggregates the shard counters.
func (c *Cache) Stats() CacheStats {
	var out CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Entries += len(s.entries)
		out.Bytes += s.bytes
		out.MaxBytes += s.maxBytes
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		s.mu.Unlock()
	}
	return out
}
