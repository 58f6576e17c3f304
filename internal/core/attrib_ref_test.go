package core

import (
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/types"
)

// This file keeps the full-scan attribution that AttributeSample's
// per-instruction memo replaced. It rescans every variable, blame set and
// access path of a function for each frame, and serves as the reference
// the memoized attribution is property-tested against.

// refBlamedAt returns all variables of fa whose blame set contains the
// instruction (or its line, at line granularity), leaving out the alias
// classes in exclude.
func (fa *FuncAnalysis) refBlamedAt(a *Analysis, in *ir.Instr, exclude map[*ir.Var]bool) []*ir.Var {
	idx, ok := fa.index[in]
	if !ok {
		return nil
	}
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
	var out []*ir.Var
	for _, v := range fa.vars {
		if blamedRep(a.find(v)) {
			out = append(out, v)
		}
	}
	for rep := range fa.blame {
		if !blamedRep(rep) {
			continue
		}
		out = append(out, a.globalMembers[rep]...)
	}
	return out
}

// refPathsAt returns the access paths blamed for the instruction.
func (fa *FuncAnalysis) refPathsAt(a *Analysis, in *ir.Instr) []*PathBlame {
	idx, ok := fa.index[in]
	if !ok {
		return nil
	}
	var out []*PathBlame
	for _, pb := range fa.Paths {
		if a.Opts.LineGranularity {
			if in.Pos.IsValid() && pb.line[in.Pos.Line] {
				out = append(out, pb)
			}
			continue
		}
		if pb.set.has(idx) {
			out = append(out, pb)
		}
	}
	return out
}

// refBlamedExits returns fa's exit variables blamed at the instruction,
// leaving out the alias classes in exclude.
func (a *Analysis) refBlamedExits(fa *FuncAnalysis, in *ir.Instr, exclude map[*ir.Var]bool) []*ir.Var {
	idx, ok := fa.index[in]
	if !ok {
		return nil
	}
	var out []*ir.Var
	for _, e := range fa.Exits {
		rep := a.find(e)
		if exclude[rep] {
			continue
		}
		if a.Opts.LineGranularity {
			if lines := fa.blameLines[rep]; lines != nil && in.Pos.IsValid() && lines[in.Pos.Line] {
				out = append(out, e)
			}
			continue
		}
		if s := fa.blame[rep]; s != nil && s.has(idx) {
			out = append(out, e)
		}
	}
	return out
}

// refBodyWrites returns the alias classes body bd writes at its spawn:
// the actuals of the ref formals it writes, and global-classed arrays.
func (a *Analysis) refBodyWrites(bd ir.Binding) map[*ir.Var]bool {
	out := make(map[*ir.Var]bool)
	for k, p := range bd.Formals {
		arg := bd.Actuals[k]
		globalArray := len(a.globalMembers[a.find(arg)]) > 0 && arg.Type != nil && arg.Type.Kind() == types.Array
		if (p.IsRef && a.writes.WritesParam(bd.Callee, p)) || globalArray {
			out[a.find(arg)] = true
		}
	}
	return out
}

// refCobegin returns, for a spawn frame whose next frame inward runs
// body, the classes only the other bodies write and the actuals transfer
// reads. Anything but a multi-body spawn entered through one of its
// bodies excludes nothing and transfers through Args.
func (a *Analysis) refCobegin(in *ir.Instr, body *ir.Func) (map[*ir.Var]bool, []*ir.Var) {
	bds := in.Bindings()
	own := -1
	for k, bd := range bds {
		if bd.Callee == body {
			own = k
		}
	}
	if len(bds) < 2 || own < 0 {
		return nil, in.Args
	}
	exclude := make(map[*ir.Var]bool)
	for k, bd := range bds {
		if k != own {
			for rep := range a.refBodyWrites(bd) {
				exclude[rep] = true
			}
		}
	}
	for rep := range a.refBodyWrites(bds[own]) {
		delete(exclude, rep)
	}
	return exclude, bds[own].Actuals
}

// ReferenceAttributeSample is AttributeSample computed by full scans, with
// no memo.
func (a *Analysis) ReferenceAttributeSample(path []Frame) []Blamed {
	var out []Blamed
	seenSym := make(map[*sem.Symbol]bool)
	seenPath := make(map[string]bool)

	record := func(v *ir.Var) {
		if !displayable(v) || seenSym[v.Sym] {
			return
		}
		seenSym[v.Sym] = true
		out = append(out, Blamed{Sym: v.Sym, Var: v})
	}
	recordPath := func(pb *PathBlame) {
		if seenPath[pb.Path] {
			return
		}
		seenPath[pb.Path] = true
		out = append(out, Blamed{Path: pb.Path, Root: pb.Root, Sym: pb.Root.Sym})
	}

	for level := 0; level < len(path); level++ {
		fr := path[level]
		fa := a.Funcs[fr.Fn]
		if fa == nil || fr.Instr == nil {
			break
		}
		var exclude map[*ir.Var]bool
		args := fr.Instr.Args
		if level > 0 {
			exclude, args = a.refCobegin(fr.Instr, path[level-1].Fn)
		}
		for _, v := range fa.refBlamedAt(a, fr.Instr, exclude) {
			record(v)
		}
		if level > 0 && (fr.Instr.Op == ir.OpCall || fr.Instr.Op == ir.OpSpawn) {
			for _, arg := range args {
				if !aggregateArg(arg) {
					continue
				}
				record(arg)
				for _, g := range a.globalMembers[a.find(arg)] {
					record(g)
				}
			}
		}
		if a.Opts.TrackPaths {
			for _, pb := range fa.refPathsAt(a, fr.Instr) {
				recordPath(pb)
			}
		}
		if !a.Opts.Interprocedural {
			break
		}
		if len(a.refBlamedExits(fa, fr.Instr, exclude)) == 0 {
			break
		}
	}
	return out
}
