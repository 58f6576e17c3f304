package comm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
)

// Pair is an ordered locale pair (From = element home, To = accessor).
type Pair struct {
	From, To int
}

// MarshalText renders the pair as "from->to" so map[Pair]int64 fields
// survive encoding/json (struct map keys are otherwise unsupported).
func (p Pair) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%d->%d", p.From, p.To)), nil
}

// UnmarshalText parses the MarshalText form.
func (p *Pair) UnmarshalText(b []byte) error {
	_, err := fmt.Sscanf(string(b), "%d->%d", &p.From, &p.To)
	return err
}

// Stats accumulates the runtime's counters. Messages/Bytes count only
// charged network messages (what the VM adds to its CommMessages and
// CommBytes); the remaining counters describe how the aggregation engine
// arrived at them.
type Stats struct {
	Messages int64
	Bytes    int64

	Hits   int64 // reads served by a resident copy (no message)
	Misses int64

	Prefetches      int64 // halo ghost-window messages
	PrefetchedElems int64
	Streams         int64 // sequential/strided run messages
	StreamedElems   int64
	Flushes         int64 // write-back messages (task end + evictions)
	FlushedElems    int64

	Invalidations int64
	Evictions     int64

	// Inspector–executor counters (all zero unless Config.Inspector).
	InspectorBuilds int64 // schedules built from a fresh inspection pass
	ScheduleHits    int64 // memoized schedules replayed without re-inspecting
	ReplicatedVars  int64 // distinct variables selectively replicated
	Gathers         int64 // bulk gather messages (one per remote home)
	GatheredElems   int64
	Replications    int64 // bulk replication messages (one per remote home)
	ReplicatedElems int64

	// Fault points at the injector's counters when fault injection is
	// active (nil otherwise); it is shared, not a snapshot.
	Fault *fault.Stats

	PerVar map[string]*VarStats
}

// VarStats is the per-variable slice of Stats.
type VarStats struct {
	Messages int64
	Bytes    int64
	Hits     int64
	Pairs    map[Pair]int64
}

// HitRate returns hits / (hits + misses), in [0, 1].
func (s *Stats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// inspectorActive reports whether any inspector–executor counter is
// nonzero; Render only emits the inspector line then, so runs without
// the inspector keep their historical (golden-pinned) rendering.
func (s *Stats) inspectorActive() bool {
	return s.InspectorBuilds != 0 || s.ScheduleHits != 0 || s.ReplicatedVars != 0 ||
		s.Gathers != 0 || s.Replications != 0
}

// VarNames returns the per-variable keys sorted by descending message
// count (ties broken by name) for stable rendering.
func (s *Stats) VarNames() []string {
	names := make([]string, 0, len(s.PerVar))
	for n := range s.PerVar {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := s.PerVar[names[i]], s.PerVar[names[j]]
		if a.Messages != b.Messages {
			return a.Messages > b.Messages
		}
		return names[i] < names[j]
	})
	return names
}

// Render returns the canonical text form of the statistics. PerVar and
// Pairs are Go maps, so any formatter that ranged over them directly
// would produce a different line order on every run; Render goes through
// VarNames/SortedPairs so two identical runs render identically — the
// determinism regression test pins this.
func (s *Stats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "messages %d bytes %d\n", s.Messages, s.Bytes)
	fmt.Fprintf(&b, "hits %d misses %d (%.1f%% hit rate)\n", s.Hits, s.Misses, 100*s.HitRate())
	fmt.Fprintf(&b, "prefetches %d (%d elems) streams %d (%d elems) flushes %d (%d elems)\n",
		s.Prefetches, s.PrefetchedElems, s.Streams, s.StreamedElems, s.Flushes, s.FlushedElems)
	fmt.Fprintf(&b, "invalidations %d evictions %d\n", s.Invalidations, s.Evictions)
	if s.inspectorActive() {
		fmt.Fprintf(&b, "inspector builds %d schedule hits %d gathers %d (%d elems) replications %d (%d elems) replicated vars %d\n",
			s.InspectorBuilds, s.ScheduleHits, s.Gathers, s.GatheredElems,
			s.Replications, s.ReplicatedElems, s.ReplicatedVars)
	}
	if s.Fault != nil {
		b.WriteString(s.Fault.Render())
	}
	for _, name := range s.VarNames() {
		vs := s.PerVar[name]
		fmt.Fprintf(&b, "var %s: messages %d bytes %d hits %d\n", name, vs.Messages, vs.Bytes, vs.Hits)
		for _, p := range vs.SortedPairs() {
			fmt.Fprintf(&b, "  locale %d -> locale %d: %d\n", p.From, p.To, vs.Pairs[p])
		}
	}
	return b.String()
}

// SortedPairs returns v's locale-pair counts in (From, To) order.
func (v *VarStats) SortedPairs() []Pair {
	pairs := make([]Pair, 0, len(v.Pairs))
	for p := range v.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].From != pairs[j].From {
			return pairs[i].From < pairs[j].From
		}
		return pairs[i].To < pairs[j].To
	})
	return pairs
}
