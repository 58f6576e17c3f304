// Package comm is the modeled communication runtime: it sits between the
// VM executor and the cycle cost model and decides how many messages a
// remote element access really costs once the classic PGAS optimizations
// are applied — bulk halo exchange, run-length coalescing of
// sequential/strided remote reads, and a per-locale software cache with
// write-back flushing (Rolinger et al., arXiv:2303.13954).
//
// The runtime is cost-model-only: the VM always reads and writes the
// canonical element cells, so program output is bit-identical with and
// without aggregation. What changes is which accesses are charged a
// message (and how large), which the VM translates into cycles and
// Listener.Comm events exactly as it does for unaggregated accesses.
//
// Coherence rules (documented in DESIGN.md):
//   - A read miss inserts a clean copy into the accessor's locale cache.
//   - At a halo-classified site (see Plan) inside a rank-1 forall sweep, a
//     read miss prefetches the whole [lo-k, hi+k] ghost window, one
//     message per contiguous same-home run.
//   - Otherwise a sequential (elem == prev+step) read miss streams a
//     runBlock-bounded block from the element's home in one message.
//   - A remote write marks the copy dirty (write-back); dirty entries are
//     flushed as coalesced runs when the writing task finishes, or
//     individually on eviction.
//   - Any write (local or remote) invalidates the other locales' copies;
//     a dirty copy invalidated by a conflicting writer is dropped (the
//     canonical store already holds the VM's value).
package comm

import (
	"repro/internal/fault"
	"repro/internal/ir"
)

// Config parameterizes the runtime.
type Config struct {
	// Locales is the simulated locale count (one cache per locale).
	Locales int
	// CacheCap is the per-locale software-cache capacity in elements:
	// 0 selects DefaultCacheCap, negative values disable caching (every
	// read fetches, every write is written through immediately).
	CacheCap int
	// Fault, when non-nil, injects deterministic faults into every
	// charged message: lost messages are retransmitted (bounded
	// exponential backoff per the injector's retry policy), duplicates
	// are suppressed, delays and timeouts add modeled latency. Program
	// output never changes — only stats and cycles.
	Fault *fault.Injector
	// Inspector enables the inspector–executor path for sites the plan
	// classifies SiteIrregular: a one-pass inspector records the remote
	// index set per (task, site, array), coalesces it into one bulk
	// gather per remote home at task end, memoizes the schedule by
	// (site, array, sweep window, layout) for replay, and selectively
	// replicates read-mostly arrays at forall barriers (SweepEnd) once
	// a locale's remote-read count since the array's last write crosses
	// ReplicaMinReads.
	Inspector bool
	// ReplicaMinReads is the per-locale remote-read threshold (since
	// the last write to the array) that marks an irregular-site array
	// read-mostly; the next forall barrier (SweepEnd) then replicates
	// it onto that locale. The count is per (locale, array) and the
	// decision is taken only at barriers — never mid-sweep — so it is
	// independent of how tasks interleave. Values <= 0 select
	// DefaultReplicaMinReads.
	ReplicaMinReads int64
}

// Defaults for Config.
const (
	DefaultCacheCap        = 4096
	DefaultReplicaMinReads = 256
)

// runBlock bounds the elements fetched by one streaming message.
const runBlock = 64

// Access describes one remote element access the VM delegates.
type Access struct {
	Arr   uint64  // owning allocation address (cache key namespace)
	Var   *ir.Var // variable owning the allocation (attribution)
	Site  uint64  // instruction address (Plan key)
	Elem  int64   // layout-linear element position
	Bytes int64   // element footprint in bytes
	Home  int     // element's home locale
	Loc   int     // accessing locale
	Task  int     // accessing task ID
	Write bool

	// Sweep bounds in layout-linear element space when the access runs
	// inside a rank-1 forall chunk (the task's current iteration window).
	InSweep          bool
	SweepLo, SweepHi int64
	// LayoutLen is the element count of the owner's layout.
	LayoutLen int64
	// HomeOf maps a layout-linear element to its home locale.
	HomeOf func(int64) int
}

// EventKind classifies runtime events.
type EventKind int

// Event kinds. Fetch/Prefetch/Stream/Flush are messages the VM charges;
// Hit and Invalidate are zero-cost bookkeeping.
const (
	EvFetch EventKind = iota
	EvPrefetch
	EvStream
	EvFlush
	EvHit
	EvInvalidate
	// EvGather is one bulk inspector–executor message: all the distinct
	// remote elements a task's irregular site touched on one home locale,
	// fetched together (charged; deferred to task end on a schedule
	// build, immediate on a memoized replay).
	EvGather
	// EvReplicate is one bulk selective-replication message: a remote
	// home's whole span of a read-mostly array copied to the reader.
	EvReplicate
)

func (k EventKind) String() string {
	switch k {
	case EvFetch:
		return "fetch"
	case EvPrefetch:
		return "prefetch"
	case EvStream:
		return "stream"
	case EvFlush:
		return "flush"
	case EvHit:
		return "hit"
	case EvInvalidate:
		return "invalidate"
	case EvGather:
		return "gather"
	case EvReplicate:
		return "replicate"
	}
	return "?"
}

// Event is one runtime action. From is always the element home, To the
// accessing locale (matching Listener.Comm's convention).
type Event struct {
	Kind     EventKind
	Var      *ir.Var
	Site     uint64
	From, To int
	Bytes    int64
	Elems    int64
	// ExtraLat is the injected extra latency in CommLatency units
	// (retransmission backoff, delays, slow locales, timeouts). The VM
	// charges CommLatency*(1+ExtraLat) for the message. Always 0 without
	// a fault injector.
	ExtraLat int64
}

// Message reports whether the event is a charged network message.
func (e Event) Message() bool {
	switch e.Kind {
	case EvFetch, EvPrefetch, EvStream, EvFlush, EvGather, EvReplicate:
		return true
	}
	return false
}

// Runtime is the per-run aggregation state.
type Runtime struct {
	cfg    Config
	plan   *Plan
	stats  Stats
	caches []*cache
	fault  *fault.Injector
	insp   *inspector
	// seq tracks the last element read per (task, array) for sequential
	// run detection.
	seq map[seqKey]int64
}

type seqKey struct {
	task int
	arr  uint64
}

// New creates a runtime for the given locale count and (optional) plan.
func New(cfg Config, plan *Plan) *Runtime {
	if cfg.Locales <= 0 {
		cfg.Locales = 1
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = DefaultCacheCap
	} else if cfg.CacheCap < 0 {
		cfg.CacheCap = 0
	}
	if cfg.ReplicaMinReads <= 0 {
		cfg.ReplicaMinReads = DefaultReplicaMinReads
	}
	r := &Runtime{
		cfg:    cfg,
		plan:   plan,
		caches: make([]*cache, cfg.Locales),
		fault:  cfg.Fault,
		seq:    make(map[seqKey]int64),
	}
	for i := range r.caches {
		r.caches[i] = newCache(cfg.CacheCap)
	}
	if cfg.Inspector {
		r.insp = newInspector()
	}
	r.stats.PerVar = make(map[string]*VarStats)
	r.stats.Fault = r.fault.Stats()
	return r
}

// Plan returns the static plan the runtime was built with (may be nil).
func (r *Runtime) Plan() *Plan { return r.plan }

// Access models one remote element access and returns the events it
// produced. The VM charges every Message() event.
func (r *Runtime) Access(a Access) []Event {
	if a.Write {
		return r.write(a)
	}
	return r.read(a)
}

func (r *Runtime) read(a Access) []Event {
	c := r.caches[a.Loc]
	defer func() { r.seq[seqKey{a.Task, a.Arr}] = a.Elem }()
	if c.has(a.Arr, a.Elem) {
		r.stats.Hits++
		r.varStats(a.Var).Hits++
		return []Event{{Kind: EvHit, Var: a.Var, Site: a.Site, From: a.Home, To: a.Loc, Elems: 1}}
	}
	if r.insp != nil && r.insp.resident(a) {
		// Served by a replica or by this task's gathered buffer — no
		// message, same as a cache hit.
		r.stats.Hits++
		r.varStats(a.Var).Hits++
		return []Event{{Kind: EvHit, Var: a.Var, Site: a.Site, From: a.Home, To: a.Loc, Elems: 1}}
	}
	r.stats.Misses++

	var site Site
	if r.plan != nil {
		site = r.plan.Sites[a.Site]
	}
	if site.Class == SiteIrregular && r.insp != nil {
		return r.insp.access(r, a)
	}
	if site.Class == SiteOwner {
		// Statically owner-computes, yet the access went remote: the
		// sweep was not owner-aligned (range-based forall, or a single
		// task walking the whole space). Degrade to a halo window at
		// offset 0 so the miss still amortizes.
		site.Class, site.Off = SiteHalo, 0
	}
	var out []Event
	if site.Class == SiteHalo && a.InSweep && c.cap > 0 {
		out = r.prefetchHalo(a, site)
		if c.has(a.Arr, a.Elem) {
			return out
		}
		// Capacity smaller than the window evicted the target: fall
		// through to a plain fetch.
	}
	if c.cap > 0 {
		step := int64(1)
		stream := false
		switch site.Class {
		case SiteStrided:
			if site.Stride > 1 {
				step, stream = site.Stride, true
			}
		case SiteBlocked:
			stream = true
		default:
			if last, ok := r.seq[seqKey{a.Task, a.Arr}]; ok && a.Elem == last+1 {
				stream = true
			}
		}
		if stream {
			return append(out, r.streamFetch(a, step)...)
		}
	}
	// Single-element fetch.
	ev := Event{Kind: EvFetch, Var: a.Var, Site: a.Site, From: a.Home, To: a.Loc, Bytes: a.Bytes, Elems: 1}
	r.countMessage(&ev)
	out = append(out, ev)
	out = append(out, c.insert(a.Var, a.Arr, a.Elem, a.Home, a.Bytes, false, a.Task, r)...)
	return out
}

func (r *Runtime) write(a Access) []Event {
	// Keep the other locales coherent first.
	out := r.invalidateOthers(a.Var, a.Site, a.Arr, a.Elem, a.Loc)
	if r.insp != nil && r.plan != nil && r.plan.Sites[a.Site].Class == SiteIrregular {
		// Irregular scatter: record for the task-end coalesced
		// write-back instead of dirtying the cache per element.
		return append(out, r.insp.accessWrite(r, a)...)
	}
	c := r.caches[a.Loc]
	if c.cap <= 0 {
		// Uncached: immediate write-through, one message.
		ev := Event{Kind: EvFlush, Var: a.Var, Site: a.Site, From: a.Home, To: a.Loc, Bytes: a.Bytes, Elems: 1}
		r.countMessage(&ev)
		return append(out, ev)
	}
	// Write-back: mark dirty, flush at task end (or on eviction).
	if e := c.get(a.Arr, a.Elem); e != nil {
		e.dirty = true
		e.task = a.Task
		e.v = a.Var
		return out
	}
	return append(out, c.insert(a.Var, a.Arr, a.Elem, a.Home, a.Bytes, true, a.Task, r)...)
}

// LocalWrite keeps remote caches coherent when a locale writes one of its
// own (home) elements.
func (r *Runtime) LocalWrite(v *ir.Var, site uint64, arr uint64, elem int64, loc int) []Event {
	return r.invalidateOthers(v, site, arr, elem, loc)
}

func (r *Runtime) invalidateOthers(v *ir.Var, site uint64, arr uint64, elem int64, loc int) []Event {
	var out []Event
	for li, c := range r.caches {
		if li == loc {
			continue
		}
		dropped := c.drop(arr, elem)
		if r.insp != nil && r.insp.invalidate(arr, elem, li) {
			dropped = true
		}
		if dropped {
			r.stats.Invalidations++
			out = append(out, Event{Kind: EvInvalidate, Var: v, Site: site, From: loc, To: li, Elems: 1})
		}
	}
	if r.insp != nil {
		r.insp.noteWrite(arr, loc)
	}
	return out
}

// TaskEnd flushes the finished task's dirty entries from its locale's
// cache as coalesced contiguous same-home runs, one message per run. The
// entries stay resident (clean).
func (r *Runtime) TaskEnd(task, loc int) []Event {
	if loc < 0 || loc >= len(r.caches) {
		return nil
	}
	out := r.caches[loc].flushTask(task, loc, r)
	if r.insp != nil {
		out = append(out, r.insp.taskEnd(r, task)...)
	}
	return out
}

// SweepEnd marks a forall barrier: the inspector evaluates its
// per-(locale, array) read-mostly counters and replicates every array
// that crossed ReplicaMinReads, charging one bulk message per remote
// home. Replication is decided only here — never mid-sweep — so the
// modeled messages do not depend on how the sweep's tasks interleaved.
// No-op without the inspector.
func (r *Runtime) SweepEnd() []Event {
	if r.insp == nil {
		return nil
	}
	return r.insp.sweepEnd(r)
}

// Drain flushes every remaining dirty entry (program end); the messages
// are recorded in Stats only — in practice TaskEnd has already flushed
// everything.
func (r *Runtime) Drain() {
	for loc, c := range r.caches {
		for _, ev := range c.flushTask(-1, loc, r) {
			_ = ev
		}
	}
	if r.insp != nil {
		r.insp.taskEnd(r, -1)
	}
}

// Stats returns a snapshot of the accumulated statistics.
func (r *Runtime) Stats() *Stats { return &r.stats }

func (r *Runtime) varStats(v *ir.Var) *VarStats {
	name := "?"
	if v != nil {
		name = v.Name
	}
	vs := r.stats.PerVar[name]
	if vs == nil {
		vs = &VarStats{Pairs: make(map[Pair]int64)}
		r.stats.PerVar[name] = vs
	}
	return vs
}

// countMessage records a charged message in the aggregate and per-var
// statistics, running it through the fault injector first: any injected
// extra latency lands in ev.ExtraLat for the VM to charge.
func (r *Runtime) countMessage(ev *Event) {
	out := r.fault.Send(ev.From, ev.To)
	ev.ExtraLat = out.ExtraLat
	r.stats.Messages++
	r.stats.Bytes += ev.Bytes
	switch ev.Kind {
	case EvPrefetch:
		r.stats.Prefetches++
		r.stats.PrefetchedElems += ev.Elems
	case EvStream:
		r.stats.Streams++
		r.stats.StreamedElems += ev.Elems
	case EvFlush:
		r.stats.Flushes++
		r.stats.FlushedElems += ev.Elems
	case EvGather:
		r.stats.Gathers++
		r.stats.GatheredElems += ev.Elems
	case EvReplicate:
		r.stats.Replications++
		r.stats.ReplicatedElems += ev.Elems
	}
	vs := r.varStats(ev.Var)
	vs.Messages++
	vs.Bytes += ev.Bytes
	vs.Pairs[Pair{From: ev.From, To: ev.To}]++
}
