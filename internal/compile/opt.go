package compile

import (
	"repro/internal/arith"
	"repro/internal/ir"
)

// optimize runs the --fast pipeline: local constant folding and dead-code
// elimination over temporaries. Real --fast (LLVM -O3) also reorders and
// inlines aggressively; we model the remaining codegen-quality gap in the
// VM cost model (vm.CostModel.FastFactor), which DESIGN.md documents as a
// substitution. The paper notes --fast makes IR→source variable mapping
// "nearly impossible"; correspondingly the temps deleted here disappear
// from the debug tables.
func optimize(res *Result) {
	p := res.Prog
	p.Optimized = true
	p.NoChecks = true
	for _, f := range p.Funcs {
		foldConstants(f)
	}
	for _, f := range p.Funcs {
		for eliminateDead(f) {
		}
	}
	inlineSmallFuncs(p)
	for _, f := range p.Funcs {
		for eliminateDead(f) {
		}
	}
	p.Finalize()
}

// foldConstants performs per-block constant propagation/folding over
// temporaries. It folds whatever arith evaluates successfully, so a
// folded constant is the value the VM would compute.
func foldConstants(f *ir.Func) {
	for _, b := range f.Blocks {
		consts := make(map[*ir.Var]*ir.Lit)
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpConst:
				if in.Dst.IsTemp {
					consts[in.Dst] = in.Lit
				}
			case ir.OpBin:
				la, aok := consts[in.A]
				lb, bok := consts[in.B]
				if aok && bok && in.Dst != nil && in.Dst.IsTemp {
					if lit := arith.BinConst(in.BinOp, la, lb); lit != nil {
						in.Op = ir.OpConst
						in.Lit = lit
						in.A, in.B = nil, nil
						in.BinOp = 0
						consts[in.Dst] = lit
						continue
					}
				}
				delete(consts, in.Dst)
			case ir.OpUn:
				if la, ok := consts[in.A]; ok && in.Dst != nil && in.Dst.IsTemp {
					if lit := arith.UnConst(in.BinOp, la); lit != nil {
						in.Op = ir.OpConst
						in.Lit = lit
						in.A = nil
						in.BinOp = 0
						consts[in.Dst] = lit
						continue
					}
				}
				delete(consts, in.Dst)
			default:
				if d := in.Def(); d != nil {
					delete(consts, d)
				}
			}
		}
	}
}

// eliminateDead removes pure instructions whose temp destinations are never
// read; returns true if anything was removed (callers iterate to fixpoint).
func eliminateDead(f *ir.Func) bool {
	used := make(map[*ir.Var]bool)
	mark := func(v *ir.Var) {
		if v != nil {
			used[v] = true
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				mark(u)
			}
			// Store-through and alias targets stay live.
			if in.IsStoreThrough() || in.IsAliasDef() {
				mark(in.Dst)
			}
			switch in.Op {
			case ir.OpRet:
				mark(in.A)
			case ir.OpBr:
				mark(in.A)
			case ir.OpCall, ir.OpSpawn, ir.OpBuiltin:
				for _, a := range in.Args {
					mark(a)
				}
			}
		}
	}
	removed := false
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if isPure(in.Op) && in.Dst != nil && in.Dst.IsTemp && !used[in.Dst] {
				removed = true
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	if removed {
		// Keep blocks structurally valid.
		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 {
				b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpNop})
			}
			last := b.Instrs[len(b.Instrs)-1]
			switch last.Op {
			case ir.OpRet, ir.OpJmp, ir.OpBr:
			default:
				b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet, A: f.RetVar})
			}
		}
	}
	return removed
}

func isPure(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpBin, ir.OpUn, ir.OpMove, ir.OpMakeTuple,
		ir.OpTupleGet, ir.OpField, ir.OpQuery, ir.OpMakeRange:
		return true
	}
	return false
}
