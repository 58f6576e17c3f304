package comm

import "testing"

// The test fixture is a 16-element array block-distributed over 2
// locales: elements 0-7 live on locale 0, 8-15 on locale 1.
func access(elem int64, loc int, write bool) Access {
	return Access{
		Arr: 1, Elem: elem, Bytes: 8,
		Home: int(elem / 8), Loc: loc, Task: 1, Write: write,
		LayoutLen: 16,
		Homes:     blocksOf8{},
	}
}

// blocksOf8 homes element e on locale e/8.
type blocksOf8 struct{}

func (blocksOf8) HomeOf(e int64) int { return int(e / 8) }

// mustHit reads a through r and fails unless the read was served from a
// resident copy: no message sent and exactly one more Stats.Hits.
func mustHit(t *testing.T, r *Runtime, a Access, what string) {
	t.Helper()
	before := r.Stats().Hits
	if evs := r.Access(a); len(evs) != 0 || r.Stats().Hits != before+1 {
		t.Errorf("%s: sent %+v, hits %d -> %d, want no message and one hit", what, evs, before, r.Stats().Hits)
	}
}

// A halo-classified read miss inside a sweep prefetches the whole ghost
// window in one message per contiguous same-home run; the halo element
// then hits on every later access.
func TestHaloPrefetchCoalescesGhostWindow(t *testing.T) {
	plan := NewPlan()
	plan.Sites[42] = Site{Class: SiteHalo, Off: 1}
	r := New(Config{Locales: 2}, plan)

	// Locale 1 sweeps its own block [8,15] and reads the left halo
	// element 7 (home: locale 0).
	a := access(7, 1, false)
	a.Site = 42
	a.InSweep, a.SweepLo, a.SweepHi = true, 8, 15
	evs := r.Access(a)
	if got := len(evs); got != 1 {
		t.Fatalf("first halo miss sent %d messages, want 1 prefetch: %+v", got, evs)
	}
	if evs[0].Kind != EvPrefetch || evs[0].From != 0 || evs[0].To != 1 {
		t.Errorf("prefetch event wrong: %+v", evs[0])
	}

	mustHit(t, r, a, "re-read of prefetched halo element")
	if s := r.Stats(); s.Messages != 1 || s.Hits != 1 || s.Prefetches != 1 {
		t.Errorf("stats = %d msgs / %d hits / %d prefetches, want 1/1/1", s.Messages, s.Hits, s.Prefetches)
	}
}

// Sequential remote reads coalesce: the second miss in a row streams the
// rest of the same-home run in one message, and the run then hits.
func TestSequentialReadsStream(t *testing.T) {
	r := New(Config{Locales: 2}, nil)
	var msgs int
	for e := int64(0); e < 8; e++ {
		msgs += len(r.Access(access(e, 1, false)))
	}
	// Elem 0: single fetch. Elem 1: detected sequential, one stream
	// covering 1..7. Elems 2..7: hits.
	if msgs != 2 {
		t.Errorf("8 sequential remote reads cost %d messages, want 2 (fetch + stream)", msgs)
	}
	if s := r.Stats(); s.Streams != 1 || s.StreamedElems != 7 || s.Hits != 6 {
		t.Errorf("stats = %d streams (%d elems) / %d hits, want 1 (7) / 6", s.Streams, s.StreamedElems, s.Hits)
	}
}

// Dirty entries are written back at task end as coalesced contiguous
// runs, one message per run, and stay resident clean.
func TestWriteBackFlushCoalescesRuns(t *testing.T) {
	r := New(Config{Locales: 2}, nil)
	for e := int64(0); e < 4; e++ {
		if n := len(r.Access(access(e, 1, true))); n != 0 {
			t.Errorf("write-back write to elem %d sent %d messages, want 0", e, n)
		}
	}
	evs := r.TaskEnd(1, 1)
	if got := len(evs); got != 1 {
		t.Fatalf("task-end flush sent %d messages, want 1 coalesced run: %+v", got, evs)
	}
	if evs[0].Kind != EvFlush || evs[0].Elems != 4 || evs[0].Bytes != 32 {
		t.Errorf("flush event wrong: %+v", evs[0])
	}
	if again := r.TaskEnd(1, 1); len(again) != 0 {
		t.Errorf("second task-end flushed again: %+v", again)
	}
}

// A negative CacheCap disables the cache: every read fetches, every
// write is written through immediately.
func TestDisabledCacheWritesThrough(t *testing.T) {
	r := New(Config{Locales: 2, CacheCap: -1}, nil)
	for i := 0; i < 3; i++ {
		evs := r.Access(access(0, 1, false))
		if len(evs) != 1 || evs[0].Kind != EvFetch {
			t.Errorf("uncached read %d: %+v, want one fetch", i, evs)
		}
	}
	evs := r.Access(access(0, 1, true))
	if len(evs) != 1 || evs[0].Kind != EvFlush {
		t.Errorf("uncached write: %+v, want one immediate flush", evs)
	}
	if s := r.Stats(); s.Hits != 0 {
		t.Errorf("disabled cache recorded %d hits", s.Hits)
	}
}

// A write on the home locale invalidates other locales' copies, forcing
// their next read back onto the network.
func TestLocalWriteInvalidatesRemoteCopies(t *testing.T) {
	r := New(Config{Locales: 2}, nil)
	r.Access(access(0, 1, false)) // locale 1 caches elem 0
	r.LocalWrite(1, 0, 0)
	if n := len(r.Access(access(0, 1, false))); n != 1 {
		t.Errorf("read after invalidation cost %d messages, want 1", n)
	}
	if s := r.Stats(); s.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", s.Invalidations)
	}
}

// A CacheCap of 0 selects the default capacity (the CLIs map a
// user-facing 0 to -1 before building the Config).
func TestZeroCacheCapMeansDefault(t *testing.T) {
	r := New(Config{Locales: 2, CacheCap: 0}, nil)
	r.Access(access(0, 1, false))
	mustHit(t, r, access(0, 1, false), "re-read under the default capacity")
}

// Capacity pressure evicts strict-LRU; a dirty victim is flushed in its
// own single-element message.
func TestEvictionFlushesDirtyVictim(t *testing.T) {
	r := New(Config{Locales: 2, CacheCap: 2}, nil)
	if n := len(r.Access(access(0, 1, true))); n != 0 {
		t.Fatalf("dirty insert cost %d messages", n)
	}
	r.Access(access(2, 1, false)) // clean; cache now full
	// Touch elem 2 so elem 0 (the dirty entry) is the LRU victim.
	r.Access(access(2, 1, false))
	evs := r.Access(access(4, 1, false))
	var flushed bool
	for _, ev := range evs {
		if ev.Kind == EvFlush && ev.Elems == 1 {
			flushed = true
		}
	}
	if !flushed {
		t.Errorf("evicting a dirty entry did not flush it: %+v", evs)
	}
	if s := r.Stats(); s.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

// TestHitAllocatesNothing: once warm, a read served from the cache and a
// local write that invalidates no copy allocate nothing. Both run on
// every distributed access of an aggregated run.
func TestHitAllocatesNothing(t *testing.T) {
	r := New(Config{Locales: 2}, nil)
	a := access(9, 0, false) // home: locale 1
	r.Access(a)              // miss: fetched, now resident on locale 0
	hits := r.Stats().Hits
	if n := testing.AllocsPerRun(100, func() { r.Access(a) }); n != 0 {
		t.Errorf("cache hit allocated %.1f times per read, want 0", n)
	}
	if r.Stats().Hits == hits {
		t.Fatal("re-reads of a resident element did not hit")
	}
	// Locale 0 writes its own element 3, which no other locale holds.
	if n := testing.AllocsPerRun(100, func() { r.LocalWrite(1, 3, 0) }); n != 0 {
		t.Errorf("local write with nothing to invalidate allocated %.1f times, want 0", n)
	}
	if inv := r.Stats().Invalidations; inv != 0 {
		t.Errorf("invalidations = %d, want 0", inv)
	}
}
