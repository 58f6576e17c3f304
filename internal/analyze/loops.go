package analyze

import (
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/token"
)

// loopInfo is per-function natural-loop structure.
type loopInfo struct {
	Loops []*cfg.Loop
	// depth[blockID] is the nesting depth of the innermost natural loop
	// holding the block (0 outside every loop).
	depth []int
}

func buildLoopInfo(f *ir.Func) *loopInfo {
	li := &loopInfo{Loops: cfg.NaturalLoops(f), depth: make([]int, len(f.Blocks))}
	for _, l := range li.Loops {
		for id := range l.Body {
			if id < len(li.depth) {
				li.depth[id] = max(li.depth[id], l.Depth)
			}
		}
	}
	return li
}

// constTrip recognizes the counted-loop shape irgen emits —
//
//	iv = lo; head: cond = iv <= hi; br cond body exit; ...; iv = iv + step
//
// — and returns the compile-time trip count when lo, hi and step all
// resolve to integer constants. Loops whose bounds come from config
// constants, domain queries, or arithmetic do not qualify.
func (ctx *Context) constTrip(f *ir.Func, l *cfg.Loop) (int64, *ir.Var, bool) {
	term := l.Head.Terminator()
	if term == nil || term.Op != ir.OpBr || term.A == nil {
		return 0, nil, false
	}
	// The condition must be `iv <= hi` computed in the header.
	var cond *ir.Instr
	for _, in := range l.Head.Instrs {
		if in.Dst == term.A && in.Op == ir.OpBin && in.BinOp == token.LE {
			cond = in
		}
	}
	if cond == nil || cond.A == nil || cond.B == nil {
		return 0, nil, false
	}
	iv := cond.A
	hi, ok := ctx.constInt(f, cond.B)
	if !ok {
		return 0, nil, false
	}
	// iv's defs: one init move outside the loop, one increment inside.
	var lo int64
	var haveLo bool
	step := int64(1)
	for _, d := range ctx.defs(f)[iv] {
		if d.Op != ir.OpMove || d.Block == nil {
			return 0, nil, false
		}
		if l.Body[d.Block.ID] {
			// The increment: iv = iv + step.
			inc := singleDef(ctx.defs(f), d.A)
			if inc == nil || inc.Op != ir.OpBin || inc.BinOp != token.PLUS || inc.A != iv {
				return 0, nil, false
			}
			s, ok := ctx.constInt(f, inc.B)
			if !ok {
				return 0, nil, false
			}
			step = s
		} else {
			v, ok := ctx.constInt(f, d.A)
			if !ok {
				return 0, nil, false
			}
			lo, haveLo = v, true
		}
	}
	if !haveLo || step != 1 || hi < lo {
		return 0, nil, false
	}
	return hi - lo + 1, iv, true
}

func singleDef(defs map[*ir.Var][]*ir.Instr, v *ir.Var) *ir.Instr {
	if v == nil {
		return nil
	}
	if ds := defs[v]; len(ds) == 1 {
		return ds[0]
	}
	return nil
}

// serialLoopIter identifies what a serial counted loop iterates: when the
// header condition's bounds were produced by low/high (or dimlow/dimhigh)
// queries on one domain or array variable, that variable is returned.
func (ctx *Context) serialLoopIter(f *ir.Func, l *cfg.Loop) (iv, iter *ir.Var) {
	term := l.Head.Terminator()
	if term == nil || term.Op != ir.OpBr || term.A == nil {
		return nil, nil
	}
	var cond *ir.Instr
	for _, in := range l.Head.Instrs {
		if in.Dst == term.A && in.Op == ir.OpBin && in.BinOp == token.LE {
			cond = in
		}
	}
	if cond == nil {
		return nil, nil
	}
	iv = cond.A
	hiDef := singleDef(ctx.defs(f), cond.B)
	if hiDef == nil || hiDef.Op != ir.OpQuery {
		return iv, nil
	}
	switch hiDef.Method {
	case "high", "dimhigh":
		return iv, hiDef.A
	}
	return iv, nil
}
