package comm

import (
	"sort"

	"repro/internal/ir"
)

// This file is the inspector–executor engine (Rolinger et al.,
// arXiv:2303.13954) behind Config.Inspector. For sites the plan
// classifies SiteIrregular (data-dependent subscripts like A[B[i]]),
// per-element fetching is replaced by a three-stage protocol:
//
//   - Inspect: the first pass of a task over the site records the
//     distinct remote elements it touches — no messages yet. Reads and
//     writes both inspect: a gather site coalesces fetches, a scatter
//     site coalesces write-backs.
//   - Schedule: at task end the recorded set is sorted, run-length
//     merged and deduplicated, then charged as one bulk EvGather (or
//     EvFlush for scatters) per remote home locale. Sweep-windowed
//     schedules are memoized by
//     (site, array, sweep window, layout length), so a later task
//     covering the same window replays the schedule in one step
//     (Stats.ScheduleHits) instead of re-inspecting.
//   - Replicate: an array a locale read remotely at irregular sites at
//     least Config.ReplicaMinReads times since its last write is
//     read-mostly from that locale; its remote spans are copied
//     wholesale to the reading locale (one EvReplicate per remote home)
//     and subsequent reads hit locally. The decision is evaluated only
//     at forall barriers (Runtime.SweepEnd), never mid-sweep: the
//     counters a barrier sees do not depend on how the sweep's tasks
//     interleaved, so the message count does not either. Writes punch the
//     written element out of every other locale's replica through the
//     regular invalidation path and reset the writer's read counter.
//
// Like the rest of the runtime this is cost-model-only: the VM still
// reads canonical cells, so program output is bit-identical with the
// inspector on or off — only message counts, cycles and stats change.

// recKey identifies one in-flight inspection: a task's recording for
// one irregular site over one array.
type recKey struct {
	task int
	site uint64
	arr  uint64
}

// recording accumulates the remote elements one task touched at one
// irregular site. elems maps element → home (deduplicated); have holds
// residency replayed from a memoized schedule. A site is exclusively a
// read (gather) or a write (scatter) instruction, so the direction is a
// property of the recording, not of individual accesses.
type recording struct {
	v         *ir.Var
	bytes     int64
	loc       int
	write     bool
	elems     map[int64]int
	have      SpanSet
	inSweep   bool
	sweepLo   int64
	sweepHi   int64
	layoutLen int64
	replayed  bool
}

// schedKey is the memoization key: the site, the array, the sweep
// window the inspecting task covered, and the layout length (domain
// fingerprint — a resized or redistributed array never matches).
type schedKey struct {
	site      uint64
	arr       uint64
	lo, hi    int64
	layoutLen int64
}

// schedRun is one contiguous single-home element run of a schedule.
type schedRun struct {
	home   int
	lo, hi int64
}

// schedMsg is the per-home aggregation of a schedule: one bulk gather
// message moving elems elements from home.
type schedMsg struct {
	home  int
	elems int64
}

// schedule is a built communication schedule. elems is the canonical
// element→home set (kept for delta merges); runs and msgs are derived.
type schedule struct {
	elems map[int64]int
	runs  []schedRun
	msgs  []schedMsg
}

// repKey identifies one locale's replica of one array.
type repKey struct {
	loc int
	arr uint64
}

// arrState tracks the read-mostly heuristic per (locale, array): the
// locale's remote irregular reads since its own last write, plus the
// array geometry stashed from the last miss so the barrier can build
// the replica without an Access in hand. Keying by locale (rather than
// globally) makes the trigger independent of how tasks from different
// locales interleave.
type arrState struct {
	reads     int64
	v         *ir.Var
	bytes     int64
	site      uint64
	layoutLen int64
	homeOf    func(int64) int
}

type inspector struct {
	recs     map[recKey]*recording
	scheds   map[schedKey]*schedule
	replicas map[repKey]*SpanSet
	arrs     map[repKey]*arrState
	repArrs  map[uint64]bool // arrays already counted in ReplicatedVars
}

func newInspector() *inspector {
	return &inspector{
		recs:     make(map[recKey]*recording),
		scheds:   make(map[schedKey]*schedule),
		replicas: make(map[repKey]*SpanSet),
		arrs:     make(map[repKey]*arrState),
		repArrs:  make(map[uint64]bool),
	}
}

// resident reports whether a read is served without a message: by the
// locale's replica of the array, or by the accessing task's own
// gathered buffer (recorded or replayed at this site).
func (ins *inspector) resident(a Access) bool {
	if rs, ok := ins.replicas[repKey{a.Loc, a.Arr}]; ok && rs.Contains(a.Elem) {
		return true
	}
	rec, ok := ins.recs[recKey{a.Task, a.Site, a.Arr}]
	if !ok {
		return false
	}
	if _, ok := rec.elems[a.Elem]; ok {
		return true
	}
	return rec.have.Contains(a.Elem)
}

// access handles a read miss at an irregular site: bump the read-mostly
// counter (the sweep-end barrier replicates once it crosses the
// threshold), replay a memoized schedule when one covers this sweep
// window, else record the element for the task-end gather (no message
// now — deferred).
func (ins *inspector) access(r *Runtime, a Access) []Event {
	sk := repKey{a.Loc, a.Arr}
	st := ins.arrs[sk]
	if st == nil {
		st = &arrState{}
		ins.arrs[sk] = st
	}
	st.reads++
	st.v, st.bytes, st.site = a.Var, a.Bytes, a.Site
	st.layoutLen, st.homeOf = a.LayoutLen, a.HomeOf
	k := recKey{a.Task, a.Site, a.Arr}
	rec := ins.recs[k]
	if rec == nil {
		rec = &recording{
			v: a.Var, bytes: a.Bytes, loc: a.Loc,
			elems:   make(map[int64]int),
			inSweep: a.InSweep, sweepLo: a.SweepLo, sweepHi: a.SweepHi,
			layoutLen: a.LayoutLen,
		}
		ins.recs[k] = rec
		if a.InSweep {
			if sc, ok := ins.scheds[schedKey{a.Site, a.Arr, a.SweepLo, a.SweepHi, a.LayoutLen}]; ok {
				out := ins.replay(r, a, rec, sc)
				if !rec.have.Contains(a.Elem) {
					// The replayed schedule missed this element (the
					// index data changed since it was built): record the
					// delta; finalize merges it back into the memo.
					rec.elems[a.Elem] = a.Home
				}
				return out
			}
		}
	}
	rec.elems[a.Elem] = a.Home
	return nil
}

// accessWrite handles a write at an irregular site (scatter): the
// element is recorded and the coalesced write-back is charged at task
// end, one bulk EvFlush per remote home — the mirror image of the
// gather path. Replication never triggers on writes, and coherence
// (replica/cache invalidation, the read-counter reset) already ran in
// invalidateOthers before this is called.
func (ins *inspector) accessWrite(r *Runtime, a Access) []Event {
	k := recKey{a.Task, a.Site, a.Arr}
	rec := ins.recs[k]
	if rec == nil {
		rec = &recording{
			v: a.Var, bytes: a.Bytes, loc: a.Loc, write: true,
			elems:   make(map[int64]int),
			inSweep: a.InSweep, sweepLo: a.SweepLo, sweepHi: a.SweepHi,
			layoutLen: a.LayoutLen,
		}
		ins.recs[k] = rec
		if a.InSweep {
			if sc, ok := ins.scheds[schedKey{a.Site, a.Arr, a.SweepLo, a.SweepHi, a.LayoutLen}]; ok {
				out := ins.replay(r, a, rec, sc)
				if !rec.have.Contains(a.Elem) {
					rec.elems[a.Elem] = a.Home
				}
				return out
			}
		}
	}
	if rec.have.Contains(a.Elem) {
		return nil // covered by the replayed schedule's bulk flush
	}
	rec.elems[a.Elem] = a.Home
	return nil
}

// replay charges a memoized schedule's bulk messages immediately and
// seeds the task's buffer with the schedule's residency. For gathers,
// elements the locale's replica already holds are not re-fetched;
// scatters always reach the home locale in full.
func (ins *inspector) replay(r *Runtime, a Access, rec *recording, sc *schedule) []Event {
	r.stats.ScheduleHits++
	rec.replayed = true
	kind := EvGather
	var rep *SpanSet
	if rec.write {
		kind = EvFlush
	} else {
		rep = ins.replicas[repKey{a.Loc, a.Arr}]
	}
	perHome := make(map[int]int64)
	for _, run := range sc.runs {
		rec.have.Add(run.lo, run.hi)
		if run.home == a.Loc {
			continue
		}
		if rep == nil {
			perHome[run.home] += run.hi - run.lo + 1
			continue
		}
		for _, miss := range rep.Missing(run.lo, run.hi) {
			perHome[run.home] += miss[1] - miss[0] + 1
		}
	}
	homes := make([]int, 0, len(perHome))
	for h := range perHome {
		homes = append(homes, h)
	}
	sort.Ints(homes)
	var out []Event
	for _, h := range homes {
		n := perHome[h]
		if n == 0 {
			continue
		}
		ev := Event{
			Kind: kind, Var: a.Var, Site: a.Site,
			From: h, To: a.Loc, Bytes: n * a.Bytes, Elems: n,
		}
		r.countMessage(&ev)
		out = append(out, ev)
	}
	return out
}

// sweepEnd is the forall-barrier hook: every (locale, array) whose
// read-mostly counter crossed the threshold replicates here, in sorted
// key order. Deferring the decision to the barrier — rather than the
// miss that crossed — is what makes the trigger independent of task
// interleaving: mid-sweep state is schedule-dependent, barrier state is
// not.
func (ins *inspector) sweepEnd(r *Runtime) []Event {
	var keys []repKey
	for k, st := range ins.arrs {
		if st.reads < r.cfg.ReplicaMinReads || st.layoutLen <= 0 || st.homeOf == nil {
			continue
		}
		if _, ok := ins.replicas[k]; ok {
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].loc != keys[j].loc {
			return keys[i].loc < keys[j].loc
		}
		return keys[i].arr < keys[j].arr
	})
	var out []Event
	for _, k := range keys {
		out = append(out, ins.replicate(r, k, ins.arrs[k])...)
	}
	return out
}

// replicate copies the array's remote spans wholesale to the reading
// locale: one bulk message per remote home.
func (ins *inspector) replicate(r *Runtime, k repKey, st *arrState) []Event {
	rs := &SpanSet{}
	ins.replicas[k] = rs
	st.reads = 0
	var out []Event
	lo := int64(0)
	for lo < st.layoutLen {
		h := st.homeOf(lo)
		hi := lo
		for hi+1 < st.layoutLen && st.homeOf(hi+1) == h {
			hi++
		}
		if h != k.loc {
			n := hi - lo + 1
			ev := Event{
				Kind: EvReplicate, Var: st.v, Site: st.site,
				From: h, To: k.loc, Bytes: n * st.bytes, Elems: n,
			}
			r.countMessage(&ev)
			out = append(out, ev)
			rs.Add(lo, hi)
		}
		lo = hi + 1
	}
	if !ins.repArrs[k.arr] {
		ins.repArrs[k.arr] = true
		r.stats.ReplicatedVars++
	}
	return out
}

// invalidate drops elem from locale li's replica of arr (a write kept
// the copy coherent). Reports whether a copy was resident.
func (ins *inspector) invalidate(arr uint64, elem int64, li int) bool {
	rs, ok := ins.replicas[repKey{li, arr}]
	if !ok || !rs.Contains(elem) {
		return false
	}
	rs.Remove(elem, elem)
	return true
}

// noteWrite resets the writing locale's read-mostly counter:
// replication wants reads since the last write, not lifetime reads.
// Only the writer's own counter resets — resetting every locale's
// would make the trigger depend on cross-locale task interleaving.
func (ins *inspector) noteWrite(arr uint64, loc int) {
	if st := ins.arrs[repKey{loc, arr}]; st != nil {
		st.reads = 0
	}
}

// taskEnd finalizes every recording owned by task (all tasks when
// task < 0): builds the coalesced schedule, charges one bulk gather per
// remote home, and memoizes sweep-windowed schedules for replay.
func (ins *inspector) taskEnd(r *Runtime, task int) []Event {
	var keys []recKey
	for k := range ins.recs {
		if task < 0 || k.task == task {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].site != keys[j].site {
			return keys[i].site < keys[j].site
		}
		if keys[i].arr != keys[j].arr {
			return keys[i].arr < keys[j].arr
		}
		return keys[i].task < keys[j].task
	})
	var out []Event
	for _, k := range keys {
		rec := ins.recs[k]
		delete(ins.recs, k)
		out = append(out, ins.finalize(r, k, rec)...)
	}
	return out
}

// finalize turns one recording into charged gather events and updates
// the memoized schedule. Only the freshly recorded elements are charged
// (a replayed prefix was already charged at replay time).
func (ins *inspector) finalize(r *Runtime, k recKey, rec *recording) []Event {
	if len(rec.elems) == 0 {
		return nil
	}
	fresh := buildSchedule(rec.elems)
	r.stats.InspectorBuilds++
	kind := EvGather
	if rec.write {
		kind = EvFlush
	}
	var out []Event
	for _, m := range fresh.msgs {
		if m.home == rec.loc {
			continue
		}
		ev := Event{
			Kind: kind, Var: rec.v, Site: k.site,
			From: m.home, To: rec.loc,
			Bytes: m.elems * rec.bytes, Elems: m.elems,
		}
		r.countMessage(&ev)
		out = append(out, ev)
	}
	if rec.inSweep {
		key := schedKey{k.site, k.arr, rec.sweepLo, rec.sweepHi, rec.layoutLen}
		if old := ins.scheds[key]; old != nil && rec.replayed {
			for e, h := range rec.elems {
				old.elems[e] = h
			}
			ins.scheds[key] = buildSchedule(old.elems)
		} else {
			ins.scheds[key] = fresh
		}
	}
	return out
}

// buildSchedule sorts, run-length merges and aggregates an element→home
// set into a schedule.
func buildSchedule(elems map[int64]int) *schedule {
	sorted := make([]int64, 0, len(elems))
	for e := range elems {
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sc := &schedule{elems: elems}
	perHome := make(map[int]int64)
	for i := 0; i < len(sorted); {
		e, h := sorted[i], elems[sorted[i]]
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[j-1]+1 && elems[sorted[j]] == h {
			j++
		}
		sc.runs = append(sc.runs, schedRun{home: h, lo: e, hi: sorted[j-1]})
		perHome[h] += int64(j - i)
		i = j
	}
	homes := make([]int, 0, len(perHome))
	for h := range perHome {
		homes = append(homes, h)
	}
	sort.Ints(homes)
	for _, h := range homes {
		sc.msgs = append(sc.msgs, schedMsg{home: h, elems: perHome[h]})
	}
	return sc
}
