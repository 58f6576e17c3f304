// Package postmortem implements step 3 of the paper's pipeline: it takes
// the raw context-sensitive samples (address vectors), converts addresses
// to functions/files/lines via the program's debug information, glues
// worker-thread post-spawn stacks to their recorded pre-spawn stacks via
// spawn tags, trims runtime-library frames to form each sample's
// "instance" (its complete call path), and runs the blame attribution
// (transfer-function bubbling) to produce the final data-centric
// profile. It also derives the classic code-centric profile from the
// same samples (the paper notes this comes "with almost no overhead").
package postmortem

import (
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sampler"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vm"
)

// VarRow is one row of the flat data-centric view (paper Tables II/IV/VI).
type VarRow struct {
	// Name is the variable name or access path.
	Name string
	// Type is the display type ("[DistSpace] v3", "8*real", ...).
	Type string
	// Context is the defining procedure ("main" for globals).
	Context string
	// Samples is the number of samples blamed.
	Samples int
	// Blame is Samples / TotalSamples (§III BlamePercentage).
	Blame float64
	// IsPath marks field/element access-path rows.
	IsPath bool
	// Sym is the underlying symbol (nil for paths).
	Sym *sem.Symbol
}

// FuncRow is one row of the code-centric view (paper Fig. 4).
type FuncRow struct {
	Name    string
	Flat    int     // samples with this function innermost
	FlatPct float64 // share of total
	Cum     int     // samples with this function anywhere on the path
	CumPct  float64
}

// Profile is the final result of post-mortem processing.
type Profile struct {
	TotalSamples int
	DataCentric  []VarRow
	CodeCentric  []FuncRow
	Threshold    uint64
	Stats        vm.Stats
	// Dropped counts samples lost to the sampler's ring-buffer overrun:
	// the profile below is a partial view and the renderers say so.
	Dropped uint64
	// PerLocale holds per-node profiles for multi-locale runs (step 3 is
	// "embarrassingly parallel" per node; step 4 aggregates).
	PerLocale map[int]*Profile
}

// Row returns the data-centric row for a variable name, if present.
func (p *Profile) Row(name string) (VarRow, bool) {
	for _, r := range p.DataCentric {
		if r.Name == name {
			return r, true
		}
	}
	return VarRow{}, false
}

// Processor converts raw samples into a Profile.
type Processor struct {
	prog     *ir.Program
	analysis *core.Analysis
	spawns   map[uint64]sampler.SpawnRecord
}

// New creates a processor.
func New(prog *ir.Program, analysis *core.Analysis, spawns map[uint64]sampler.SpawnRecord) *Processor {
	return &Processor{prog: prog, analysis: analysis, spawns: spawns}
}

// Glue appends one raw sample's full, trimmed call path (the paper's
// per-sample "instance"), innermost first, to dst and returns the
// extended slice: address → instruction resolution, pre/post-spawn
// gluing via tags, runtime-frame trimming. dst is the caller's buffer;
// Glue keeps no reference to it.
func (p *Processor) Glue(dst []core.Frame, s sampler.RawSample) []core.Frame {
	start := len(dst)
	appendAddrs := func(addrs []uint64) {
		for _, a := range addrs {
			in := p.prog.InstrAt(a)
			if in == nil || in.Block == nil {
				continue
			}
			fn := in.Block.Func
			if fn.IsRuntime {
				continue // trim runtime frames
			}
			// Trim redundant adjacent duplicates (the paper trims
			// redundant stack info when gluing).
			if n := len(dst); n > start && dst[n-1].Instr == in {
				continue
			}
			dst = append(dst, core.Frame{Fn: fn, Instr: in})
		}
	}
	appendAddrs(s.Stack)
	// Glue pre-spawn traces by walking the tag chain.
	for tag := s.Tag; tag != 0; {
		rec, ok := p.spawns[tag]
		if !ok {
			break
		}
		appendAddrs(rec.Stack)
		tag = rec.ParentTag
	}
	return dst
}

// rawCtx is one distinct raw calling context: the sample fields Process
// reads (Tag, Addr, Stack and RuntimeFunc, plus Locale when profiles are
// split by locale) and how many samples share them.
type rawCtx struct {
	// first indexes the context's first sample; its fields are the
	// context's.
	first int32
	n     int32
	// path indexes the context's glued path in groups.paths.
	path int32
	// spin marks a runtime-spin context whose runtime function (its
	// innermost) is not on its glued path: it counts as on the path for
	// the cumulative column.
	spin bool
	// innermost is the code-centric flat function ("" when unresolved).
	innermost string
}

// groups is a sample set reduced to its distinct raw contexts, in order
// of first occurrence, and their distinct glued paths.
type groups struct {
	samples []sampler.RawSample
	ctxs    []rawCtx
	// paths holds, per distinct glued path, the first context gluing to
	// it.
	paths []int32
}

// group costs at most one hash lookup per sample, and a repeated context
// allocates nothing: a repeat only bumps its context's count. Most
// samples repeat their predecessor's context (a task sampled again in the
// same loop), which costs no lookup at all. Each distinct context is then
// glued and resolved once. byLocale adds Locale to the context, so each
// context lies on one locale.
func (p *Processor) group(samples []sampler.RawSample, byLocale bool) *groups {
	g := &groups{samples: samples, ctxs: make([]rawCtx, 0, min(len(samples), 256))}
	index := newContextIndex()
	prev := int32(-1) // the previous sample's context
	for i := range samples {
		s := &samples[i]
		if prev >= 0 && sameContext(&samples[i-1], s, byLocale) {
			g.ctxs[prev].n++
			continue
		}
		j := index.probe(g, s, byLocale)
		if c := index.slots[j]; c != 0 {
			prev = c - 1
			g.ctxs[prev].n++
			continue
		}
		prev = int32(len(g.ctxs))
		g.ctxs = append(g.ctxs, rawCtx{first: int32(i), n: 1})
		index.slots[j] = prev + 1
		if 2*len(g.ctxs) > len(index.slots) {
			index.grow(g, byLocale)
		}
	}

	var key []byte
	// Sized for the most paths there can be, so it never grows.
	pathIndex := make(map[string]int32, len(g.ctxs))
	var frames []core.Frame
	for i := range g.ctxs {
		c := &g.ctxs[i]
		s := &samples[c.first]
		frames = p.Glue(frames[:0], *s)
		key = key[:0]
		for _, fr := range frames {
			key = binary.AppendUvarint(key, fr.Instr.Addr)
		}
		pi, ok := pathIndex[string(key)]
		if !ok {
			pi = int32(len(g.paths))
			pathIndex[string(key)] = pi
			g.paths = append(g.paths, int32(i))
		}
		c.path = pi

		// Code-centric attribution (untrimmed view keeps runtime names).
		c.innermost = s.RuntimeFunc
		if c.innermost == "" {
			if in := p.prog.InstrAt(s.Addr); in != nil {
				c.innermost = in.Block.Func.Name
			}
		}
		c.spin = s.RuntimeFunc != "" && !slices.ContainsFunc(frames, func(fr core.Frame) bool { return fr.Fn.Name == s.RuntimeFunc })
	}
	return g
}

// contextIndex finds a sample's raw context: an open-addressing table of
// context indexes over a hash of the context's fields, probed linearly.
// A probe compares the sample with the context's first sample, so the
// table keeps no key of its own, and it grows by doubling with the number
// of contexts alone: the same contexts always cost the same allocations.
// (A growing Go map splits its tables as its random hash seed falls.)
type contextIndex struct {
	slots []int32 // context index + 1; 0 marks a free slot
	shift uint    // 64 - log2(len(slots)): a hash's top bits pick its slot
}

func newContextIndex() contextIndex {
	return contextIndex{slots: make([]int32, 64), shift: 64 - 6}
}

// probe returns the slot holding s's context, or the free slot where it
// belongs.
func (x *contextIndex) probe(g *groups, s *sampler.RawSample, byLocale bool) int {
	mask := len(x.slots) - 1
	for j := int(contextHash(s, byLocale) >> x.shift); ; j = (j + 1) & mask {
		c := x.slots[j]
		if c == 0 || sameContext(&g.samples[g.ctxs[c-1].first], s, byLocale) {
			return j
		}
	}
}

// grow doubles the table and re-inserts every context.
func (x *contextIndex) grow(g *groups, byLocale bool) {
	x.slots = make([]int32, 2*len(x.slots))
	x.shift--
	for c := range g.ctxs {
		x.slots[x.probe(g, &g.samples[g.ctxs[c].first], byLocale)] = int32(c) + 1
	}
}

// contextHash mixes the fields sameContext compares.
func contextHash(s *sampler.RawSample, byLocale bool) uint64 {
	const k = 0x9e3779b97f4a7c15 // 2^64 / golden ratio
	h := (s.Tag ^ k) * k
	h = (h ^ s.Addr) * k
	if byLocale {
		h = (h ^ uint64(s.Locale)) * k
	}
	for _, a := range s.Stack {
		h = (h ^ a) * k
	}
	for i := 0; i < len(s.RuntimeFunc); i++ {
		h = (h ^ uint64(s.RuntimeFunc[i])) * k
	}
	return h
}

// sameContext reports whether a and b share a raw context.
func sameContext(a, b *sampler.RawSample, byLocale bool) bool {
	return a.Tag == b.Tag && a.Addr == b.Addr && a.RuntimeFunc == b.RuntimeFunc &&
		(!byLocale || a.Locale == b.Locale) && slices.Equal(a.Stack, b.Stack)
}

// attribute adds each glued path's samples to the rows and cumulative
// counts of every tally that counted them. It glues and attributes each
// distinct path once, against one Attributor, so paths that share their
// callers bubble blame through them once.
func (p *Processor) attribute(g *groups, tallies ...*tally) {
	at := p.analysis.NewAttributor()
	var frames []core.Frame
	var fns []string
	for pi, c := range g.paths {
		frames = p.Glue(frames[:0], g.samples[g.ctxs[c].first])
		blamed := at.Attribute(frames)
		fns = fns[:0]
		for _, fr := range frames {
			if !slices.Contains(fns, fr.Fn.Name) {
				fns = append(fns, fr.Fn.Name)
			}
		}
		for _, t := range tallies {
			if n := t.pathN[pi]; n > 0 {
				t.addPath(fns, blamed, n)
			}
		}
	}
}

// tally accumulates one profile: samples per glued path and per
// innermost function as contexts are added, then the rows and cumulative
// counts each path adds to.
type tally struct {
	total int
	// pathN counts samples per glued path (indexed like groups.paths).
	pathN    []int
	flat     map[string]int
	cum      map[string]int
	varRows  map[*sem.Symbol]*VarRow
	pathRows map[string]*pathRow
}

func (g *groups) newTally() *tally {
	return &tally{
		pathN:    make([]int, len(g.paths)),
		flat:     make(map[string]int),
		cum:      make(map[string]int),
		varRows:  make(map[*sem.Symbol]*VarRow),
		pathRows: make(map[string]*pathRow),
	}
}

// add counts context c's samples.
func (t *tally) add(c *rawCtx) {
	n := int(c.n)
	t.total += n
	t.pathN[c.path] += n
	if c.innermost != "" {
		t.flat[c.innermost] += n
	}
	if c.spin {
		t.cum[c.innermost] += n
	}
}

// addPath adds n samples of one glued path, whose distinct functions are
// fns and whose attribution is blamed.
func (t *tally) addPath(fns []string, blamed []core.Blamed, n int) {
	for _, name := range fns {
		t.cum[name] += n
	}
	for _, b := range blamed {
		if b.Path != "" {
			r, ok := t.pathRows[b.Path]
			if !ok {
				r = &pathRow{root: b.Root, row: VarRow{Name: b.Path, IsPath: true}}
				r.row.Context, r.row.Type = pathLabel(b.Root)
				t.pathRows[b.Path] = r
			} else if b.Root != r.root {
				r.relabel(b.Root)
			}
			r.row.Samples += n
			continue
		}
		r, ok := t.varRows[b.Sym]
		if !ok {
			ty := ""
			if b.Sym.Type != nil {
				ty = b.Sym.Type.String()
			}
			r = &VarRow{Name: b.Sym.Name, Type: ty, Context: b.Sym.Context(), Sym: b.Sym}
			t.varRows[b.Sym] = r
		}
		r.Samples += n
	}
}

// pathRow is one access-path row and the root variable that labels it.
type pathRow struct {
	row  VarRow
	root *ir.Var
}

// pathLabel returns the context and type a path row rooted at root
// shows.
func pathLabel(root *ir.Var) (ctx, ty string) {
	ctx = "main"
	if root.Sym != nil {
		ctx = root.Sym.Context()
	}
	if root.Type != nil {
		// The path's leaf type is not tracked statically; report the
		// root element type region.
		ty = root.Type.String()
	}
	return ctx, ty
}

// relabel makes root label r if it sorts first. Different variables can
// share an access path's text (a local "determ[e]" and a ref formal of
// the same name): their samples share one row, labeled by the root
// declared first in the source, then by context and type, so the label
// does not depend on the order samples arrive in.
func (r *pathRow) relabel(root *ir.Var) {
	if root.Sym == r.root.Sym && root.Type == r.root.Type {
		return // the same label
	}
	pos, cur := declPos(root), declPos(r.root)
	if cur.Before(pos) {
		return
	}
	ctx, ty := pathLabel(root)
	if pos == cur && (ctx > r.row.Context || ctx == r.row.Context && ty >= r.row.Type) {
		return
	}
	r.root, r.row.Context, r.row.Type = root, ctx, ty
}

// declPos is where v's source variable is declared (none for a
// compiler-made root).
func declPos(v *ir.Var) source.Pos {
	if v.Sym == nil {
		return source.NoPos
	}
	return v.Sym.Pos
}

// Process runs attribution and aggregation over all samples.
//
// Samples repeat a few calling contexts many times, so Process groups
// them by raw context, glues and resolves each distinct context once,
// attributes each distinct glued path once, and adds each path's sample
// count to the rows. Nothing of samples is kept.
func (p *Processor) Process(samples []sampler.RawSample, threshold uint64, stats vm.Stats) *Profile {
	g := p.group(samples, false)
	t := g.newTally()
	for i := range g.ctxs {
		t.add(&g.ctxs[i])
	}
	p.attribute(g, t)
	return t.profile(threshold, stats)
}

// profile renders the tally as a sorted Profile.
func (t *tally) profile(threshold uint64, stats vm.Stats) *Profile {
	prof := &Profile{TotalSamples: t.total, Threshold: threshold, Stats: stats}
	total := prof.TotalSamples
	if total == 0 {
		total = 1
	}
	for _, r := range t.varRows {
		r.Blame = float64(r.Samples) / float64(total)
		prof.DataCentric = append(prof.DataCentric, *r)
	}
	for _, r := range t.pathRows {
		r.row.Blame = float64(r.row.Samples) / float64(total)
		prof.DataCentric = append(prof.DataCentric, r.row)
	}
	sort.Slice(prof.DataCentric, func(i, j int) bool {
		a, b := prof.DataCentric[i], prof.DataCentric[j]
		if a.Samples != b.Samples {
			return a.Samples > b.Samples
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		// Same-named variables in different scopes (loop indices, ...)
		// must order deterministically too: rows come off map iteration,
		// so any tie left to the unstable sort varies across processes —
		// which the backend differential harness flags as a divergence.
		if a.Context != b.Context {
			return a.Context < b.Context
		}
		return !a.IsPath && b.IsPath
	})

	for name, n := range t.cum {
		flat := t.flat[name]
		prof.CodeCentric = append(prof.CodeCentric, FuncRow{
			Name: name,
			Flat: flat, FlatPct: float64(flat) / float64(total),
			Cum: n, CumPct: float64(n) / float64(total),
		})
	}
	sort.Slice(prof.CodeCentric, func(i, j int) bool {
		a, b := prof.CodeCentric[i], prof.CodeCentric[j]
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		return a.Name < b.Name
	})
	return prof
}

// ProcessPerLocale processes each node's samples independently
// (embarrassingly parallel in the paper), then aggregates — the
// multi-locale extension of §VI. One grouping pass, keyed by locale too,
// feeds the aggregate and every per-locale profile.
func (p *Processor) ProcessPerLocale(samples []sampler.RawSample, threshold uint64, stats vm.Stats) *Profile {
	g := p.group(samples, true)
	agg := g.newTally()
	byLoc := make(map[int]*tally)
	tallies := []*tally{agg}
	for i := range g.ctxs {
		c := &g.ctxs[i]
		agg.add(c)
		loc := g.samples[c.first].Locale
		t := byLoc[loc]
		if t == nil {
			t = g.newTally()
			byLoc[loc] = t
			tallies = append(tallies, t)
		}
		t.add(c)
	}
	p.attribute(g, tallies...)
	prof := agg.profile(threshold, stats)
	prof.PerLocale = make(map[int]*Profile, len(byLoc))
	for loc, t := range byLoc {
		prof.PerLocale[loc] = t.profile(threshold, stats)
	}
	return prof
}
