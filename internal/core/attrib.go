package core

import (
	"encoding/binary"
	"slices"
	"sort"

	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/types"
)

// Frame is one level of a resolved, glued call path: the function and the
// instruction within it (the sampled instruction at level 0, the call or
// spawn site at outer levels).
type Frame struct {
	Fn    *ir.Func
	Instr *ir.Instr
}

// Blamed is one entity a sample is attributed to: a source variable or a
// field/element access path rooted at one.
type Blamed struct {
	// Sym is the variable's semantic symbol (variable rows).
	Sym *sem.Symbol
	// Var is the IR variable blamed.
	Var *ir.Var
	// Path is the access path for field rows
	// ("partArray[i].zoneArray[j].value"); empty for plain variables.
	Path string
	// Root is the path's root variable.
	Root *ir.Var
}

// aggregateArg limits caller-side call transfer to memory aggregates
// (the tuple/record/array inputs whose production the callee's work
// represents); scalar config values are not blame carriers.
func aggregateArg(v *ir.Var) bool {
	if v == nil || v.Type == nil {
		return false
	}
	switch v.Type.Kind() {
	case types.Tuple, types.Record, types.Array, types.Class:
		return true
	}
	return false
}

// displayable reports whether v appears in user-facing views: named
// source variables that are not compiler temps and not ref formals
// (ref-formal blame bubbles to the caller's variable instead; §IV.C).
func displayable(v *ir.Var) bool {
	if v.Sym == nil || v.IsTemp {
		return false
	}
	if v.IsParam && v.IsRef {
		return false
	}
	return true
}

// instrBlame is the level-local attribution of one instruction: what a
// sample at that instruction blames within its own function, before any
// caller-side transfer. It depends only on (Analysis, instruction), so it
// is computed once and shared; its slices are read-only.
type instrBlame struct {
	// blamed lists the blamed variables (displayable, first per symbol,
	// in the function's variable order, then global alias-class members)
	// followed by the blamed access paths (sorted by path).
	blamed []Blamed
	// nVars splits blamed into variables [:nVars] and paths [nVars:].
	nVars int
	// exitBlamed reports whether one of the function's exit variables is
	// blamed, i.e. whether blame bubbles to the caller.
	exitBlamed bool
	// transfer is what caller-side transfer blames when blame bubbles
	// through this instruction as a call or spawn site: the displayable
	// aggregate arguments (Args, or at a cobegin the sampled body's
	// actuals) and their global alias-class members, in argument order.
	transfer []Blamed
}

// attribution returns in's memoized level-local attribution, building it
// on first use. Concurrent first uses may both build it; the first
// stored value wins, so every caller sees one shared result. An
// instruction fa does not index (a frame naming an instruction outside
// its function) blames nothing at its level and stops bubbling, while
// caller-side transfer still reads its Args.
func (fa *FuncAnalysis) attribution(a *Analysis, in *ir.Instr) *instrBlame {
	idx, ok := fa.index[in]
	if !ok {
		return &instrBlame{transfer: a.transfer(in, in.Args)}
	}
	slot := &fa.memo[idx]
	if ib := slot.Load(); ib != nil {
		return ib
	}
	ib := fa.buildAttribution(a, in, idx, nil, in.Args)
	if !slot.CompareAndSwap(nil, ib) {
		return slot.Load()
	}
	return ib
}

// levelAttribution returns the attribution of call or spawn site in at a
// caller level of a path whose next frame inward runs body. It is in's
// own attribution, except at a cobegin: there it leaves out the classes
// only the other bodies write, and transfers through body's actuals,
// memoized per (instruction, body).
func (fa *FuncAnalysis) levelAttribution(a *Analysis, in *ir.Instr, body *ir.Func) *instrBlame {
	cb := fa.cobegin[in]
	if cb == nil {
		return fa.attribution(a, in)
	}
	k := 0
	for k < len(cb.bodies) && cb.bodies[k].Callee != body {
		k++
	}
	if k == len(cb.bodies) {
		return fa.attribution(a, in)
	}
	slot := &cb.memo[k]
	if ib := slot.Load(); ib != nil {
		return ib
	}
	exclude := make(map[*ir.Var]bool)
	for j, reps := range cb.writes {
		if j != k {
			for _, r := range reps {
				exclude[r] = true
			}
		}
	}
	for _, r := range cb.writes[k] {
		delete(exclude, r)
	}
	ib := fa.buildAttribution(a, in, fa.index[in], exclude, cb.bodies[k].Actuals)
	if !slot.CompareAndSwap(nil, ib) {
		return slot.Load()
	}
	return ib
}

// buildAttribution scans fa's blame sets for the instruction at idx (or
// its line, at line granularity), skipping the alias classes in exclude.
// actuals are what the result's caller-side transfer reads.
func (fa *FuncAnalysis) buildAttribution(a *Analysis, in *ir.Instr, idx int, exclude map[*ir.Var]bool, actuals []*ir.Var) *instrBlame {
	blamedRep := func(rep *ir.Var) bool {
		if exclude[rep] {
			return false
		}
		if a.Opts.LineGranularity {
			lines := fa.blameLines[rep]
			return lines != nil && in.Pos.IsValid() && lines[in.Pos.Line]
		}
		s := fa.blame[rep]
		return s != nil && s.has(idx)
	}
	ib := &instrBlame{transfer: a.transfer(in, actuals)}
	seen := make(map[*sem.Symbol]bool)
	addVar := func(v *ir.Var) {
		if displayable(v) && !seen[v.Sym] {
			seen[v.Sym] = true
			ib.blamed = append(ib.blamed, Blamed{Sym: v.Sym, Var: v})
		}
	}
	for _, v := range fa.vars {
		if blamedRep(a.find(v)) {
			addVar(v)
		}
	}
	// Global alias-class members share blame even when the alias name
	// does not appear in this function (RealPos/RealCount in MiniMD).
	for rep := range fa.blame {
		if blamedRep(rep) {
			for _, g := range a.globalMembers[rep] {
				addVar(g)
			}
		}
	}
	ib.nVars = len(ib.blamed)
	if a.Opts.TrackPaths {
		for _, pb := range fa.Paths {
			hit := pb.set.has(idx)
			if a.Opts.LineGranularity {
				hit = in.Pos.IsValid() && pb.line[in.Pos.Line]
			}
			if hit {
				ib.blamed = append(ib.blamed, Blamed{Path: pb.Path, Root: pb.Root, Sym: pb.Root.Sym})
			}
		}
		paths := ib.blamed[ib.nVars:]
		sort.Slice(paths, func(i, j int) bool { return paths[i].Path < paths[j].Path })
	}
	// A full slice expression: a caller appending to the shared result
	// reallocates instead of writing into the memo.
	ib.blamed = ib.blamed[:len(ib.blamed):len(ib.blamed)]
	for _, e := range fa.Exits {
		if blamedRep(a.find(e)) {
			ib.exitBlamed = true
			break
		}
	}
	return ib
}

// transfer lists the caller-side transfer at call or spawn site in
// reached through a blamed exit: "establish a blame relationship between
// the blamed parameter(s) and the parameter(s) that are not blamed in the
// caller" (§IV.A) — the other arguments fed the blamed work.
func (a *Analysis) transfer(in *ir.Instr, actuals []*ir.Var) []Blamed {
	if in.Op != ir.OpCall && in.Op != ir.OpSpawn {
		return nil
	}
	var out []Blamed
	add := func(v *ir.Var) {
		if displayable(v) {
			out = append(out, Blamed{Sym: v.Sym, Var: v})
		}
	}
	for _, arg := range actuals {
		if !aggregateArg(arg) {
			continue
		}
		add(arg)
		for _, g := range a.globalMembers[a.find(arg)] {
			add(g)
		}
	}
	return out
}

// AttributeSample maps one sample (as a resolved call path, innermost
// first) to the set of blamed variables and access paths — the paper's
// step 3: level-0 blame from the sampled instruction's membership in
// blame sets, then exit-variable bubbling through each call/spawn site
// using the transfer functions.
//
// Each level's own blame is memoized per instruction (per instruction and
// body at a cobegin spawn, whose bodies write different actuals), so a
// sample costs one lookup per frame. The result may share the memo's
// storage: callers must treat it as read-only. A call allocates at most
// the slice it returns.
func (a *Analysis) AttributeSample(path []Frame) []Blamed {
	ib := a.sampled(path)
	if !a.bubbles(path, ib) {
		return ib.own()
	}
	var buf, callers [32]Blamed
	return slices.Clone(merge(append(buf[:0], ib.blamed...), a.bubble(callers[:0], path)))
}

// An Attributor attributes the sampled paths of one profile. Paths that
// differ only in their sampled instruction share their callers, so it
// bubbles blame through each distinct call chain once and keeps that for
// its own lifetime; nothing outlives it. It is not safe for concurrent
// use.
type Attributor struct {
	a *Analysis
	// chains holds what each call chain's callers blame, keyed by the
	// innermost function and the caller frames.
	chains map[string][]Blamed
	key    []byte
	out    []Blamed
}

// NewAttributor returns an Attributor for samples of a's program.
func (a *Analysis) NewAttributor() *Attributor {
	return &Attributor{a: a, chains: make(map[string][]Blamed)}
}

// Attribute returns what AttributeSample(path) returns, in the same
// order. The result is read-only and valid until the next call.
func (t *Attributor) Attribute(path []Frame) []Blamed {
	ib := t.a.sampled(path)
	if !t.a.bubbles(path, ib) {
		return ib.own()
	}
	t.key = binary.AppendUvarint(t.key[:0], funcKey(path[0].Fn))
	for _, fr := range path[1:] {
		t.key = binary.AppendUvarint(t.key, funcKey(fr.Fn))
		t.key = binary.AppendUvarint(t.key, instrKey(fr.Instr))
	}
	callers, ok := t.chains[string(t.key)]
	if !ok {
		callers = slices.Clip(t.a.bubble(nil, path))
		t.chains[string(t.key)] = callers
	}
	t.out = merge(append(t.out[:0], ib.blamed...), callers)
	return t.out
}

// funcKey and instrKey identify a frame's parts in a chain key (0 for
// none).
func funcKey(f *ir.Func) uint64 {
	if f == nil {
		return 0
	}
	return uint64(f.ID) + 1
}

func instrKey(in *ir.Instr) uint64 {
	if in == nil {
		return 0
	}
	return in.Addr + 1
}

// sampled returns the level-local attribution of path's sampled
// instruction, or nil when path has none.
func (a *Analysis) sampled(path []Frame) *instrBlame {
	if len(path) == 0 {
		return nil
	}
	fa := a.Funcs[path[0].Fn]
	if fa == nil || path[0].Instr == nil {
		return nil
	}
	return fa.attribution(a, path[0].Instr)
}

// own returns ib's blame (nil for no attribution).
func (ib *instrBlame) own() []Blamed {
	if ib == nil {
		return nil
	}
	return ib.blamed
}

// bubbles reports whether blame at path's sampled instruction, whose
// attribution is ib, reaches its callers.
func (a *Analysis) bubbles(path []Frame, ib *instrBlame) bool {
	return ib != nil && len(path) > 1 && a.Opts.Interprocedural && ib.exitBlamed
}

// bubble appends to dst, once each, what path's callers blame as blame
// bubbles up from its sampled instruction: each caller level's own
// variables, its caller-side transfer and its access paths.
func (a *Analysis) bubble(dst []Blamed, path []Frame) []Blamed {
	record := func(b Blamed) {
		if !containsBlamed(dst, b) {
			dst = append(dst, b)
		}
	}
	for level := 1; level < len(path); level++ {
		fr := path[level]
		fa := a.Funcs[fr.Fn]
		if fa == nil || fr.Instr == nil {
			break
		}
		ib := fa.levelAttribution(a, fr.Instr, path[level-1].Fn)
		for _, b := range ib.blamed[:ib.nVars] {
			record(b)
		}
		for _, b := range ib.transfer {
			record(b)
		}
		for _, b := range ib.blamed[ib.nVars:] {
			record(b)
		}
		// Bubble only while an exit variable carries the blame upward.
		if !ib.exitBlamed {
			break
		}
	}
	return dst
}

// merge appends to own, the sampled level's blame, the callers' entries
// it does not hold yet.
func merge(own, callers []Blamed) []Blamed {
	n := len(own)
	for _, b := range callers {
		if !containsBlamed(own[:n], b) {
			own = append(own, b)
		}
	}
	return own
}

// containsBlamed reports whether out already holds b: variables are
// distinct per symbol, access paths per path. A path blames a handful of
// entries, so a linear scan beats any set.
func containsBlamed(out []Blamed, b Blamed) bool {
	for i := range out {
		if b.Path != "" {
			if out[i].Path == b.Path {
				return true
			}
		} else if out[i].Path == "" && out[i].Sym == b.Sym {
			return true
		}
	}
	return false
}
