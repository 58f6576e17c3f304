package comm

import (
	"testing"

	"repro/internal/fault"
)

func mustSpec(t *testing.T, s string) fault.Spec {
	t.Helper()
	spec, err := fault.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Injected duplicates and delays mutate only latency and fault counters:
// the event stream (kinds, runs, byte counts) and the cache's LRU state
// are identical to a fault-free run.
func TestDupDelayPreservesEventStream(t *testing.T) {
	run := func(inj *fault.Injector) (*Runtime, []Event) {
		r := New(Config{Locales: 2, Fault: inj}, nil)
		var evs []Event
		for e := int64(0); e < 8; e++ {
			evs = append(evs, r.Access(access(e, 1, true))...)
		}
		evs = append(evs, r.TaskEnd(1, 1)...)
		return r, evs
	}
	base, baseEvs := run(nil)
	inj := fault.NewInjector(mustSpec(t, "dup=1,delay=1:3xCommLatency"), 42)
	faulty, faultEvs := run(inj)

	if len(baseEvs) != len(faultEvs) {
		t.Fatalf("event count diverged: %d vs %d", len(baseEvs), len(faultEvs))
	}
	for i := range baseEvs {
		want, got := baseEvs[i], faultEvs[i]
		got.ExtraLat = 0 // the only permitted difference
		if want != got {
			t.Errorf("event %d diverged: %+v vs %+v", i, want, got)
		}
	}
	bs, fs := base.Stats(), faulty.Stats()
	if bs.Messages != fs.Messages || bs.FlushedElems != fs.FlushedElems || bs.Evictions != fs.Evictions {
		t.Errorf("message accounting diverged: %d/%d/%d vs %d/%d/%d",
			bs.Messages, bs.FlushedElems, bs.Evictions, fs.Messages, fs.FlushedElems, fs.Evictions)
	}
	st := inj.Stats()
	if st.DuplicatesSuppressed != st.Sends || st.DelayedMsgs != st.Sends {
		t.Errorf("dup=1,delay=1 should fire on every send: %+v", st)
	}
	if fs.Fault != st {
		t.Error("Stats.Fault does not alias the injector's counters")
	}
	// Every message carries the delay (+3 units) plus the duplicate
	// suppression unit (+1).
	for _, ev := range faultEvs {
		if ev.ExtraLat != 3+1 {
			t.Errorf("message ExtraLat = %d, want 4: %+v", ev.ExtraLat, ev)
		}
	}
}

// Eviction of a dirty victim under total duplication: the flush fires
// exactly once (duplicates are suppressed, not re-applied) and the LRU
// invariant |entries| <= cap holds throughout.
func TestEvictionFlushUnderDuplication(t *testing.T) {
	inj := fault.NewInjector(mustSpec(t, "dup=1"), 7)
	r := New(Config{Locales: 2, CacheCap: 2, Fault: inj}, nil)

	r.Access(access(0, 1, true)) // dirty
	r.Access(access(2, 1, false))
	evs := r.Access(access(4, 1, false)) // evicts dirty elem 0
	flushes := 0
	for _, ev := range evs {
		if ev.Kind == EvFlush {
			flushes++
			if ev.Elems != 1 || ev.ExtraLat != 1 {
				t.Errorf("eviction flush: %+v", ev)
			}
		}
	}
	if flushes != 1 {
		t.Fatalf("dirty eviction flushed %d times, want exactly 1 (duplicate suppressed)", flushes)
	}
	if n := len(r.caches[1].entries); n > 2 {
		t.Errorf("cache over capacity: %d entries", n)
	}
	if n := r.caches[1].lruLen(); n != len(r.caches[1].entries) {
		t.Errorf("LRU list (%d) out of sync with entries (%d)",
			n, len(r.caches[1].entries))
	}
	if st := inj.Stats(); st.DuplicatesSuppressed == 0 {
		t.Errorf("no duplicates recorded: %+v", st)
	}
}

// lruLen counts the entries on c's LRU list, walking it from the most
// recently used one.
func (c *cache) lruLen() int {
	n := 0
	for i := c.head; i != noSlot; i = c.slab[i].next {
		n++
	}
	return n
}

// Flush idempotence under faults: TaskEnd flushes dirty entries once;
// a second TaskEnd has nothing to do even when every message is
// duplicated and delayed.
func TestFlushIdempotentUnderFaults(t *testing.T) {
	inj := fault.NewInjector(mustSpec(t, "dup=1,delay=1:2xCommLatency"), 3)
	r := New(Config{Locales: 2, Fault: inj}, nil)
	for e := int64(0); e < 4; e++ {
		r.Access(access(e, 1, true))
	}
	evs := r.TaskEnd(1, 1)
	if len(evs) != 1 || evs[0].Kind != EvFlush || evs[0].Elems != 4 {
		t.Fatalf("first flush: %+v, want one 4-element run", evs)
	}
	if evs[0].ExtraLat == 0 {
		t.Error("flush message escaped injection")
	}
	if again := r.TaskEnd(1, 1); len(again) != 0 {
		t.Errorf("second TaskEnd re-flushed: %+v", again)
	}
}

// Total loss with a custom retry policy: the backoff ladder is exact and
// deterministic (2 retries with backoffs 1,2 plus a resend unit each,
// then timeout 8 => 13 extra units), and the message is still counted
// once — the model never loses data.
func TestLossRetryPolicyViaConfig(t *testing.T) {
	inj := fault.NewInjector(mustSpec(t, "loss=1"), 1)
	inj.SetRetry(fault.RetryPolicy{MaxRetries: 2, BackoffBase: 1, BackoffCap: 4, TimeoutUnits: 8})
	r := New(Config{Locales: 2, Fault: inj}, nil)
	evs := r.Access(access(0, 1, false))
	if len(evs) != 1 {
		t.Fatalf("lossy fetch charged %d messages, want 1", len(evs))
	}
	if fetch := evs[0]; fetch.ExtraLat != 13 {
		t.Errorf("ExtraLat = %d, want 13 (backoff 1+1 + 2+1 + timeout 8)", evs[0].ExtraLat)
	}
	if st := inj.Stats(); st.Retries != 2 || st.Timeouts != 1 {
		t.Errorf("stats = %+v", st)
	}
}
