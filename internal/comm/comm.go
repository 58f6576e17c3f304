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
	// Homes places the owner's elements on locales.
	Homes Homes
}

// Homes maps a layout-linear element to its home locale. The VM passes
// the owning array itself, so describing an access allocates nothing.
type Homes interface {
	HomeOf(elem int64) int
}

// EventKind classifies charged messages.
type EventKind int

// Message kinds.
const (
	EvFetch EventKind = iota
	EvPrefetch
	EvStream
	EvFlush
	// EvGather is one bulk inspector–executor message: all the distinct
	// remote elements a task's irregular site touched on one home locale,
	// fetched together (deferred to task end on a schedule build,
	// immediate on a memoized replay).
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
	case EvGather:
		return "gather"
	case EvReplicate:
		return "replicate"
	}
	return "?"
}

// Event is one charged network message. From is always the element
// home, To the accessing locale (matching Listener.Comm's convention).
// Cache hits and invalidations send nothing and are counted in Stats
// only.
type Event struct {
	Kind     EventKind
	Var      *ir.Var
	From, To int
	Bytes    int64
	Elems    int64
	// ExtraLat is the injected extra latency in CommLatency units
	// (retransmission backoff, delays, slow locales, timeouts). The VM
	// charges CommLatency*(1+ExtraLat) for the message. Always 0 without
	// a fault injector.
	ExtraLat int64
}

// Runtime is the per-run aggregation state.
type Runtime struct {
	cfg    Config
	plan   *Plan
	stats  Stats
	caches []*cache
	fault  *fault.Injector
	insp   *inspector
	// sent is the message buffer Access, TaskEnd and SweepEnd return;
	// it is reused by the next call.
	sent []Event
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

// Access models one remote element access and returns the messages it
// charged, in send order. The slice is valid until the next call.
func (r *Runtime) Access(a Access) []Event {
	r.sent = r.sent[:0]
	if a.Write {
		r.write(a)
	} else {
		r.read(a)
	}
	return r.sent
}

func (r *Runtime) read(a Access) {
	c := r.caches[a.Loc]
	defer func() { r.seq[seqKey{a.Task, a.Arr}] = a.Elem }()
	// A replica or this task's gathered buffer serves a read without a
	// message, the same as a cache hit.
	if c.has(a.Arr, a.Elem) || r.insp != nil && r.insp.resident(a) {
		r.stats.Hits++
		r.varStats(a.Var).Hits++
		return
	}
	r.stats.Misses++

	var site Site
	if r.plan != nil {
		site = r.plan.Sites[a.Site]
	}
	if site.Class == SiteIrregular && r.insp != nil {
		r.insp.access(r, a)
		return
	}
	if site.Class == SiteOwner {
		// Statically owner-computes, yet the access went remote: the
		// sweep was not owner-aligned (range-based forall, or a single
		// task walking the whole space). Degrade to a halo window at
		// offset 0 so the miss still amortizes.
		site.Class, site.Off = SiteHalo, 0
	}
	if site.Class == SiteHalo && a.InSweep && c.cap > 0 {
		r.prefetchHalo(a, site)
		if c.has(a.Arr, a.Elem) {
			return
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
			r.streamFetch(a, step)
			return
		}
	}
	// Single-element fetch.
	r.send(Event{Kind: EvFetch, Var: a.Var, From: a.Home, To: a.Loc, Bytes: a.Bytes, Elems: 1})
	c.insert(a.Var, a.Arr, a.Elem, a.Home, a.Bytes, false, a.Task, r)
}

func (r *Runtime) write(a Access) {
	// Keep the other locales coherent first.
	r.LocalWrite(a.Arr, a.Elem, a.Loc)
	if r.insp != nil && r.plan != nil && r.plan.Sites[a.Site].Class == SiteIrregular {
		// Irregular scatter: record for the task-end coalesced
		// write-back instead of dirtying the cache per element.
		r.insp.accessWrite(r, a)
		return
	}
	c := r.caches[a.Loc]
	if c.cap <= 0 {
		// Uncached: immediate write-through, one message.
		r.send(Event{Kind: EvFlush, Var: a.Var, From: a.Home, To: a.Loc, Bytes: a.Bytes, Elems: 1})
		return
	}
	// Write-back: mark dirty, flush at task end (or on eviction).
	if e := c.get(a.Arr, a.Elem); e != nil {
		e.dirty = true
		e.task = a.Task
		e.v = a.Var
		return
	}
	c.insert(a.Var, a.Arr, a.Elem, a.Home, a.Bytes, true, a.Task, r)
}

// LocalWrite keeps the other locales' cached and replicated copies
// coherent when locale loc writes element elem of arr. Invalidation
// charges no message, so there is nothing to return.
func (r *Runtime) LocalWrite(arr uint64, elem int64, loc int) {
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
		}
	}
	if r.insp != nil {
		r.insp.noteWrite(arr, loc)
	}
}

// TaskEnd flushes the finished task's dirty entries from its locale's
// cache as coalesced contiguous same-home runs, one message per run. The
// entries stay resident (clean). It returns the messages like Access.
func (r *Runtime) TaskEnd(task, loc int) []Event {
	r.sent = r.sent[:0]
	if loc < 0 || loc >= len(r.caches) {
		return r.sent
	}
	r.caches[loc].flushTask(task, loc, r)
	if r.insp != nil {
		r.insp.taskEnd(r, task)
	}
	return r.sent
}

// SweepEnd marks a forall barrier: the inspector evaluates its
// per-(locale, array) read-mostly counters and replicates every array
// that crossed ReplicaMinReads, charging one bulk message per remote
// home. Replication is decided only here — never mid-sweep — so the
// modeled messages do not depend on how the sweep's tasks interleaved.
// No-op without the inspector. It returns the messages like Access.
func (r *Runtime) SweepEnd() []Event {
	r.sent = r.sent[:0]
	if r.insp != nil {
		r.insp.sweepEnd(r)
	}
	return r.sent
}

// Drain flushes every remaining dirty entry (program end); the messages
// are recorded in Stats only — in practice TaskEnd has already flushed
// everything.
func (r *Runtime) Drain() {
	for loc, c := range r.caches {
		c.flushTask(-1, loc, r)
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

// send charges one message: it runs the message through the fault
// injector (any injected extra latency lands in ev.ExtraLat for the VM
// to charge), records it in the aggregate and per-var statistics and
// appends it to the buffer the current call returns.
func (r *Runtime) send(ev Event) {
	ev.ExtraLat = r.fault.Send(ev.From, ev.To).ExtraLat
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
	r.sent = append(r.sent, ev)
}
