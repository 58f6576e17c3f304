package core

import (
	"repro/internal/ir"
	"repro/internal/sem"
)

// This file keeps the full-scan attribution that AttributeSample's
// per-instruction memo replaced. It rescans every variable, blame set and
// access path of a function for each frame, and serves as the reference
// the memoized attribution is property-tested against.

// refBlamedAt returns all variables of fa whose blame set contains the
// instruction (or its line, at line granularity).
func (fa *FuncAnalysis) refBlamedAt(a *Analysis, in *ir.Instr) []*ir.Var {
	idx, ok := fa.index[in]
	if !ok {
		return nil
	}
	blamedRep := func(rep *ir.Var) bool {
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

// refBlamedExits returns fa's exit variables blamed at the instruction.
func (a *Analysis) refBlamedExits(fa *FuncAnalysis, in *ir.Instr) []*ir.Var {
	idx, ok := fa.index[in]
	if !ok {
		return nil
	}
	var out []*ir.Var
	for _, e := range fa.Exits {
		rep := a.find(e)
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
		for _, v := range fa.refBlamedAt(a, fr.Instr) {
			record(v)
		}
		if level > 0 && (fr.Instr.Op == ir.OpCall || fr.Instr.Op == ir.OpSpawn) {
			for _, arg := range fr.Instr.Args {
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
		if len(a.refBlamedExits(fa, fr.Instr)) == 0 {
			break
		}
	}
	return out
}
