package core

import (
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
}

// noBlame is the attribution of an instruction the function analysis does
// not index: nothing is blamed at its level and bubbling stops.
var noBlame = &instrBlame{}

// attribution returns in's memoized level-local attribution, building it
// on first use. Concurrent first uses may both build it; the first
// stored value wins, so every caller sees one shared result.
func (fa *FuncAnalysis) attribution(a *Analysis, in *ir.Instr) *instrBlame {
	idx, ok := fa.index[in]
	if !ok {
		return noBlame
	}
	slot := &fa.memo[idx]
	if ib := slot.Load(); ib != nil {
		return ib
	}
	ib := fa.buildAttribution(a, in, idx)
	if !slot.CompareAndSwap(nil, ib) {
		return slot.Load()
	}
	return ib
}

// buildAttribution scans fa's blame sets for the instruction at idx (or
// its line, at line granularity).
func (fa *FuncAnalysis) buildAttribution(a *Analysis, in *ir.Instr, idx int) *instrBlame {
	blamedRep := func(rep *ir.Var) bool {
		if a.Opts.LineGranularity {
			lines := fa.blameLines[rep]
			return lines != nil && in.Pos.IsValid() && lines[in.Pos.Line]
		}
		s := fa.blame[rep]
		return s != nil && s.has(idx)
	}
	ib := &instrBlame{}
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

// AttributeSample maps one sample (as a resolved call path, innermost
// first) to the set of blamed variables and access paths — the paper's
// step 3: level-0 blame from the sampled instruction's membership in
// blame sets, then exit-variable bubbling through each call/spawn site
// using the transfer functions.
//
// Each level's own blame is memoized per instruction, so a sample costs
// one lookup per frame. The result may share the memo's storage: callers
// must treat it as read-only.
func (a *Analysis) AttributeSample(path []Frame) []Blamed {
	if len(path) == 0 {
		return nil
	}
	fa := a.Funcs[path[0].Fn]
	if fa == nil || path[0].Instr == nil {
		return nil
	}
	ib := fa.attribution(a, path[0].Instr)
	if len(path) == 1 || !a.Opts.Interprocedural || !ib.exitBlamed {
		return ib.blamed
	}

	// Variables are distinct per symbol, access paths per path.
	type seenKey struct {
		sym  *sem.Symbol
		path string
	}
	keyOf := func(b Blamed) seenKey {
		if b.Path != "" {
			return seenKey{path: b.Path}
		}
		return seenKey{sym: b.Sym}
	}
	out := append([]Blamed(nil), ib.blamed...)
	seen := make(map[seenKey]bool, len(out))
	for _, b := range out {
		seen[keyOf(b)] = true
	}
	record := func(b Blamed) {
		if k := keyOf(b); !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	recordVar := func(v *ir.Var) {
		if displayable(v) {
			record(Blamed{Sym: v.Sym, Var: v})
		}
	}

	for level := 1; level < len(path); level++ {
		fr := path[level]
		fa := a.Funcs[fr.Fn]
		if fa == nil || fr.Instr == nil {
			break
		}
		ib := fa.attribution(a, fr.Instr)
		for _, b := range ib.blamed[:ib.nVars] {
			record(b)
		}
		// Caller-side transfer at a call site reached through a blamed
		// exit: "establish a blame relationship between the blamed
		// parameter(s) and the parameter(s) that are not blamed in the
		// caller" (§IV.A) — the other arguments fed the blamed work.
		if fr.Instr.Op == ir.OpCall || fr.Instr.Op == ir.OpSpawn {
			for _, arg := range fr.Instr.Args {
				if !aggregateArg(arg) {
					continue
				}
				recordVar(arg)
				for _, g := range a.globalMembers[a.find(arg)] {
					recordVar(g)
				}
			}
		}
		for _, b := range ib.blamed[ib.nVars:] {
			record(b)
		}
		// Bubble only while an exit variable carries the blame upward.
		if !ib.exitBlamed {
			break
		}
	}
	return out
}
