package comm

import (
	"strings"
	"testing"
)

// irregular builds an Access at an irregular-classified site (site 7)
// inside a sweep over [0, 7], reading from locale 0 (so elements 8-15,
// homed on locale 1, are remote).
func irregular(elem int64, task int) Access {
	a := access(elem, 0, false)
	a.Site = 7
	a.Task = task
	a.InSweep, a.SweepLo, a.SweepHi = true, 0, 7
	return a
}

func irregularPlan() *Plan {
	plan := NewPlan()
	plan.Sites[7] = Site{Class: SiteIrregular}
	return plan
}

// Irregular reads are recorded message-free, duplicates hit the task's
// buffer, and task end charges one deduplicated bulk gather per remote
// home.
func TestInspectorDedupsAndGathersAtTaskEnd(t *testing.T) {
	r := New(Config{Locales: 2, Inspector: true}, irregularPlan())
	for _, e := range []int64{9, 11, 9, 10, 11} {
		if n := len(r.Access(irregular(e, 1))); n != 0 {
			t.Fatalf("inspected read of elem %d sent %d messages, want 0 (deferred)", e, n)
		}
	}
	s := r.Stats()
	if s.Misses != 3 || s.Hits != 2 {
		t.Errorf("misses/hits = %d/%d, want 3/2 (duplicate indices hit the buffer)", s.Misses, s.Hits)
	}
	evs := r.TaskEnd(1, 0)
	if got := len(evs); got != 1 {
		t.Fatalf("task end sent %d messages, want 1 gather: %+v", got, evs)
	}
	if ev := evs[0]; ev.Kind != EvGather || ev.Elems != 3 || ev.Bytes != 24 || ev.From != 1 || ev.To != 0 {
		t.Errorf("gather event wrong: %+v", ev)
	}
	if s.InspectorBuilds != 1 || s.Gathers != 1 || s.GatheredElems != 3 {
		t.Errorf("builds/gathers/elems = %d/%d/%d, want 1/1/3",
			s.InspectorBuilds, s.Gathers, s.GatheredElems)
	}
}

// A second task covering the same sweep window replays the memoized
// schedule: one immediate bulk gather, then buffer hits, and nothing
// more at its task end.
func TestInspectorMemoizesScheduleAcrossTasks(t *testing.T) {
	r := New(Config{Locales: 2, Inspector: true}, irregularPlan())
	for _, e := range []int64{9, 10, 12} {
		r.Access(irregular(e, 1))
	}
	r.TaskEnd(1, 0)

	evs := r.Access(irregular(9, 2))
	if got := len(evs); got != 1 {
		t.Fatalf("replay sent %d messages, want 1 gather: %+v", got, evs)
	}
	if ev := evs[0]; ev.Kind != EvGather || ev.Elems != 3 {
		t.Errorf("replayed gather wrong: %+v", ev)
	}
	s := r.Stats()
	if s.ScheduleHits != 1 {
		t.Errorf("schedule hits = %d, want 1", s.ScheduleHits)
	}
	for _, e := range []int64{10, 12} {
		mustHit(t, r, irregular(e, 2), "replayed element")
	}
	if evs := r.TaskEnd(2, 0); len(evs) != 0 {
		t.Errorf("replaying task's end sent messages: %+v", evs)
	}
	if s.InspectorBuilds != 1 {
		t.Errorf("inspector builds = %d, want 1 (replay must not rebuild)", s.InspectorBuilds)
	}
}

// An empty remote set produces no schedule and no messages; an
// all-local recording (every element homed at the reader) builds a
// schedule with no remote homes, so it too sends nothing.
func TestInspectorEmptyAndAllLocalSchedules(t *testing.T) {
	r := New(Config{Locales: 2, Inspector: true}, irregularPlan())
	if evs := r.TaskEnd(1, 0); len(evs) != 0 {
		t.Errorf("task end with empty remote set produced events: %+v", evs)
	}
	if s := r.Stats(); s.InspectorBuilds != 0 {
		t.Errorf("empty remote set counted a build: %d", s.InspectorBuilds)
	}
	// Elements 2 and 3 are homed on locale 0 — the reading locale.
	for _, e := range []int64{2, 3} {
		r.Access(irregular(e, 1))
	}
	if evs := r.TaskEnd(1, 0); len(evs) != 0 {
		t.Errorf("all-local schedule sent messages: %+v", evs)
	}
	if s := r.Stats(); s.Gathers != 0 {
		t.Errorf("all-local schedule charged %d gathers", s.Gathers)
	}
}

// Writes at an irregular site (a scatter like A[B[i]] = x) coalesce the
// same way reads do: nothing per element, one deduplicated bulk flush
// per remote home at task end, and a memoized schedule the next task
// replays.
func TestInspectorCoalescesScatterWrites(t *testing.T) {
	r := New(Config{Locales: 2, Inspector: true}, irregularPlan())
	scatter := func(elem int64, task int) Access {
		a := irregular(elem, task)
		a.Write = true
		return a
	}
	for _, e := range []int64{9, 11, 9, 10} {
		if n := len(r.Access(scatter(e, 1))); n != 0 {
			t.Fatalf("inspected write of elem %d sent %d messages, want 0 (deferred)", e, n)
		}
	}
	evs := r.TaskEnd(1, 0)
	if got := len(evs); got != 1 {
		t.Fatalf("task end sent %d messages, want 1 bulk flush: %+v", got, evs)
	}
	if flush := evs[0]; flush.Kind != EvFlush || flush.Elems != 3 || flush.Bytes != 24 || flush.From != 1 || flush.To != 0 {
		t.Errorf("flush event wrong: %+v", flush)
	}
	s := r.Stats()
	if s.InspectorBuilds != 1 || s.Flushes != 1 || s.FlushedElems != 3 {
		t.Errorf("builds/flushes/elems = %d/%d/%d, want 1/1/3",
			s.InspectorBuilds, s.Flushes, s.FlushedElems)
	}
	// Task 2 over the same window: the memoized scatter schedule replays
	// as one immediate bulk flush; later writes and its task end are free.
	if n := len(r.Access(scatter(9, 2))); n != 1 {
		t.Fatalf("first write of task 2 sent %d messages, want 1 replayed flush", n)
	}
	for _, e := range []int64{10, 11} {
		if n := len(r.Access(scatter(e, 2))); n != 0 {
			t.Fatalf("replayed write of elem %d sent %d messages, want 0", e, n)
		}
	}
	if evs := r.TaskEnd(2, 0); len(evs) != 0 {
		t.Errorf("task 2 end re-sent messages: %+v", evs)
	}
	if s.ScheduleHits != 1 || s.InspectorBuilds != 1 {
		t.Errorf("hits/builds = %d/%d, want 1/1", s.ScheduleHits, s.InspectorBuilds)
	}
}

// Crossing the remote-read threshold marks the array read-mostly; the
// next forall barrier (SweepEnd) replicates its remote spans in one
// bulk message. A write from the home locale then punches the written
// element out of the replica (and only that element).
func TestInspectorReplicatesReadMostlyAndInvalidatesOnWrite(t *testing.T) {
	r := New(Config{Locales: 2, Inspector: true, ReplicaMinReads: 4, CacheCap: -1}, irregularPlan())
	for _, e := range []int64{9, 10, 11} {
		r.Access(irregular(e, 1))
	}
	r.TaskEnd(1, 0)
	if evs := r.SweepEnd(); len(evs) != 0 {
		t.Fatalf("barrier below the read threshold replicated: %+v", evs)
	}

	// The fourth remote read crosses the threshold (it also replays the
	// memoized schedule — one bulk gather — since no replica exists
	// yet). Replication itself waits for the barrier, which copies the
	// whole remote span [8, 15] in one message.
	if evs := r.Access(irregular(12, 2)); len(evs) != 1 {
		t.Fatalf("threshold-crossing read sent %d messages, want 1 replayed gather: %+v",
			len(evs), evs)
	}
	evs := r.SweepEnd()
	if got := len(evs); got != 1 {
		t.Fatalf("barrier replication sent %d messages, want 1: %+v", got, evs)
	}
	if ev := evs[0]; ev.Kind != EvReplicate || ev.Elems != 8 || ev.Bytes != 64 || ev.From != 1 || ev.To != 0 {
		t.Errorf("replicate event wrong: %+v", ev)
	}
	s := r.Stats()
	if s.ReplicatedVars != 1 || s.Replications != 1 || s.ReplicatedElems != 8 {
		t.Errorf("replication stats = %d vars / %d msgs / %d elems, want 1/1/8",
			s.ReplicatedVars, s.Replications, s.ReplicatedElems)
	}
	mustHit(t, r, irregular(13, 2), "read after replication")

	// Home locale writes element 13: the replica copy is invalidated.
	r.LocalWrite(1, 13, 1)
	if s.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", s.Invalidations)
	}
	// 13 now misses (recorded again); its neighbors still hit.
	if n := len(r.Access(irregular(13, 2))); n != 0 {
		t.Errorf("re-read of invalidated element sent %d messages, want 0 (re-recorded)", n)
	}
	mustHit(t, r, irregular(14, 2), "unwritten replica element")
}

// The inspector line renders only when an inspector counter is nonzero,
// in a pinned deterministic format (regression test for Stats.Render
// and the /metrics plumbing built on these counters).
func TestStatsRenderInspectorLine(t *testing.T) {
	s := &Stats{}
	if strings.Contains(s.Render(), "inspector") {
		t.Errorf("inspector line rendered with zero counters:\n%s", s.Render())
	}
	s.InspectorBuilds, s.ScheduleHits = 2, 3
	s.Gathers, s.GatheredElems = 4, 100
	s.Replications, s.ReplicatedElems, s.ReplicatedVars = 1, 50, 1
	want := "inspector builds 2 schedule hits 3 gathers 4 (100 elems) replications 1 (50 elems) replicated vars 1\n"
	if !strings.Contains(s.Render(), want) {
		t.Errorf("inspector line wrong:\n%s\nwant substring:\n%s", s.Render(), want)
	}
}
