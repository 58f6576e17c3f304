package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func sizedOutcome(n int) *Outcome {
	return &Outcome{Text: strings.Repeat("x", n)}
}

// TestCacheLRUEviction: a single-shard cache over its byte budget evicts
// from the cold end, and the counters record it.
func TestCacheLRUEviction(t *testing.T) {
	// Each outcome is 512 bytes of overhead + text; budget fits ~3.
	c := NewCache(3*(512+1000), 1)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), sizedOutcome(1000))
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 (coldest) survived an over-budget insert")
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted out of LRU order", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceeds budget %d", st.Bytes, st.MaxBytes)
	}

	// Touching k1 makes k2 the coldest; the next insert evicts k2, not k1.
	c.Get("k1")
	c.Put("k4", sizedOutcome(1000))
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("recently-used k1 was evicted")
	}
	if _, ok := c.Get("k2"); ok {
		t.Fatal("cold k2 survived")
	}
}

// TestCacheRejectsOversized: an outcome larger than a whole shard budget
// is not cached (it would evict everything for one entry).
func TestCacheRejectsOversized(t *testing.T) {
	c := NewCache(2048, 1)
	c.Put("big", sizedOutcome(1<<20))
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized outcome was cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after rejected insert: %+v", st)
	}
}

// TestCacheCounters pins hit/miss accounting.
func TestCacheCounters(t *testing.T) {
	c := NewCache(1<<20, 4)
	c.Get("absent")
	c.Put("present", sizedOutcome(10))
	c.Get("present")
	c.Get("present")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %f, want 2/3", got)
	}
}

// TestCachePutRefreshes: re-putting a key updates size accounting
// instead of duplicating the entry.
func TestCachePutRefreshes(t *testing.T) {
	c := NewCache(1<<20, 1)
	c.Put("k", sizedOutcome(100))
	c.Put("k", sizedOutcome(500))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if want := int64(500 + 512); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

// TestCacheConcurrent hammers all shards from many goroutines, storing
// result tails too (run under -race in CI).
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1<<20, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				switch i % 3 {
				case 0:
					c.Put(key, sizedOutcome(64))
				case 1:
					c.getResult(key)
				default:
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceeds budget %d", st.Bytes, st.MaxBytes)
	}
}

// TestCacheStoresTailOnHit: only getResult stores an entry's result
// tail; the tail counts in the byte budget, a tail that would not fit
// is not stored, storing one evicts cold entries as Put does, and
// re-putting the key drops the old outcome's tail.
func TestCacheStoresTailOnHit(t *testing.T) {
	out := sizedOutcome(1000)
	want, err := encodeResultTail(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := out.sizeBytes()

	c := NewCache(2*size+int64(len(want))-1, 1)
	c.Put("cold", sizedOutcome(1000))
	c.Put("k", out)
	c.Get("k")
	if st := c.Stats(); st.Bytes != 2*size {
		t.Fatalf("after Get: bytes = %d, want %d (no tail)", st.Bytes, 2*size)
	}
	_, tail, ok := c.getResult("k")
	if !ok || string(tail) != string(want) {
		t.Fatalf("getResult tail %.80q, want %.80q", tail, want)
	}
	if cap(tail) != len(tail) {
		t.Fatalf("stored tail has cap %d for %d bytes", cap(tail), len(tail))
	}
	st := c.Stats()
	if st.Bytes != size+int64(len(tail)) || st.Evictions != 1 {
		t.Fatalf("after storing the tail: bytes %d, evictions %d; want %d, 1",
			st.Bytes, st.Evictions, size+int64(len(tail)))
	}
	if _, ok := c.Get("cold"); ok {
		t.Fatal("the cold entry survived a tail that overfilled the shard")
	}

	c.Put("k", sizedOutcome(10))
	if st := c.Stats(); st.Bytes != sizedOutcome(10).sizeBytes() {
		t.Fatalf("after re-put: bytes = %d, want %d (old tail dropped)", st.Bytes, sizedOutcome(10).sizeBytes())
	}
	if _, tail, _ := c.getResult("k"); !strings.Contains(string(tail), `"text": "xxxxxxxxxx",`) {
		t.Fatalf("re-put key serves a stale tail: %.80q", tail)
	}

	small := NewCache(size, 1)
	small.Put("k", out)
	if _, tail, ok := small.getResult("k"); !ok || tail != nil {
		t.Fatalf("a tail beyond the budget was stored (ok %v, %d bytes)", ok, len(tail))
	}
	if st := small.Stats(); st.Bytes != size || st.Entries != 1 {
		t.Fatalf("after an unstored tail: %+v", st)
	}
}
