package analyze

import (
	"repro/internal/ir"
	"repro/internal/token"
)

// taintInfo tracks, inside an outlined parallel-loop body, which values
// derive from the loop index parameters. It is the basis of both the race
// detector (a write is private to an iteration iff its target is
// partitioned by the index) and the communication classifier (an access is
// owner-local iff its index IS the loop index).
type taintInfo struct {
	// direct holds vars equal to an index parameter (copies only).
	direct map[*ir.Var]bool
	// tainted holds vars with any data dependence on an index parameter
	// (direct ⊆ tainted).
	tainted map[*ir.Var]bool
	// partRef holds ref/slice-bound vars whose binding chain selected an
	// element with a tainted index — writes through them are partitioned.
	partRef map[*ir.Var]bool
}

func (t *taintInfo) anyTainted(vars []*ir.Var) bool {
	for _, v := range vars {
		if t.tainted[v] {
			return true
		}
	}
	return false
}

// bodyTaint computes (and caches) index-taint for an outlined
// forall/coforall body. For non-parallel functions it returns an empty
// taint (nothing is index-derived).
func (ctx *Context) bodyTaint(f *ir.Func) *taintInfo {
	if ti, ok := ctx.taints[f]; ok {
		return ti
	}
	ti := &taintInfo{
		direct:  make(map[*ir.Var]bool),
		tainted: make(map[*ir.Var]bool),
		partRef: make(map[*ir.Var]bool),
	}
	ctx.taints[f] = ti
	sp, ok := ctx.ParallelBody(f)
	if !ok {
		return ti
	}
	for i := 0; i < sp.Spawn.NumIdx && i < len(f.Params); i++ {
		ti.direct[f.Params[i]] = true
		ti.tainted[f.Params[i]] = true
	}
	seedTaint(f, ti)
	return ti
}

// loopTaint computes index-taint for one serial natural loop: the
// induction variable seeds the same propagation bodyTaint uses, over all
// of f.
func loopTaint(f *ir.Func, iv *ir.Var) *taintInfo {
	ti := &taintInfo{
		direct:  map[*ir.Var]bool{iv: true},
		tainted: map[*ir.Var]bool{iv: true},
		partRef: make(map[*ir.Var]bool),
	}
	seedTaint(f, ti)
	return ti
}

// seedTaint propagates taint to a fixpoint over f's instructions:
// copies preserve directness, any other def of a tainted use taints the
// target, and alias bindings indexed by tainted values (or chained through
// already-partitioned refs) become partitioned refs.
func seedTaint(f *ir.Func, ti *taintInfo) {
	for changed := true; changed; {
		changed = false
		mark := func(m map[*ir.Var]bool, v *ir.Var) {
			if v != nil && !m[v] {
				m[v] = true
				changed = true
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.OpMove && in.Rebind:
					// `ref r = x`: r aliases x outright, so every taint
					// facet transfers.
					if ti.direct[in.A] {
						mark(ti.direct, in.Dst)
					}
					if ti.tainted[in.A] {
						mark(ti.tainted, in.Dst)
					}
					if ti.partRef[in.A] {
						mark(ti.partRef, in.Dst)
					}
				case in.IsAliasDef():
					if ti.anyTainted(in.Args) || ti.tainted[in.B] || ti.partRef[in.A] {
						mark(ti.partRef, in.Dst)
					}
				case in.Op == ir.OpMove && in.Dst != nil:
					if ti.direct[in.A] {
						mark(ti.direct, in.Dst)
					}
					if ti.tainted[in.A] {
						mark(ti.tainted, in.Dst)
					}
				case in.Def() != nil && !in.IsStoreThrough():
					if ti.anyTainted(in.Uses()) {
						mark(ti.tainted, in.Dst)
					}
				}
			}
		}
	}
}

// scaleOf recognizes `idx * c` / `idx / c`: v's unique definition scales a
// direct index copy by a compile-time constant (op selects which). Returns
// the constant factor.
func (ctx *Context) scaleOf(f *ir.Func, ti *taintInfo, v *ir.Var, op token.Kind) (int64, bool) {
	in := singleDef(ctx.defs(f), v)
	if in == nil || in.Op != ir.OpBin || in.BinOp != op {
		return 0, false
	}
	if ti.direct[in.A] {
		if c, ok := ctx.constInt(f, in.B); ok {
			return c, true
		}
	}
	// Multiplication commutes; division does not.
	if op == token.STAR && ti.direct[in.B] {
		if c, ok := ctx.constInt(f, in.A); ok {
			return c, true
		}
	}
	return 0, false
}

// indirectIndex recognizes a data-dependent subscript: v's definition
// chain (through copies) reaches an array element load whose own index
// derives from the loop index — the A[B[i]] subscript-of-subscript
// shape, including sparse-domain iteration (x[colidx[j]] with j bounded
// by rowptr values). The accessed element's owner is unknowable
// statically, but the index set a sweep touches is fixed per window —
// exactly what the runtime inspector–executor path exploits.
func (ctx *Context) indirectIndex(f *ir.Func, ti *taintInfo, v *ir.Var) bool {
	defs := ctx.defs(f)
	for depth := 0; depth < 8; depth++ {
		in := singleDef(defs, v)
		if in == nil {
			return false
		}
		switch in.Op {
		case ir.OpMove:
			v = in.A
		case ir.OpIndex, ir.OpRefElem:
			return ti.anyTainted(in.Args)
		default:
			return false
		}
	}
	return false
}

// offsetOf recognizes `idx ± c`: v's unique definition is an add/subtract
// of a direct index copy and a compile-time constant. Returns the signed
// offset.
func (ctx *Context) offsetOf(f *ir.Func, ti *taintInfo, v *ir.Var) (int64, bool) {
	in := singleDef(ctx.defs(f), v)
	if in == nil || in.Op != ir.OpBin {
		return 0, false
	}
	switch in.BinOp {
	case token.PLUS:
		if ti.direct[in.A] {
			if c, ok := ctx.constInt(f, in.B); ok {
				return c, true
			}
		}
		if ti.direct[in.B] {
			if c, ok := ctx.constInt(f, in.A); ok {
				return c, true
			}
		}
	case token.MINUS:
		if ti.direct[in.A] {
			if c, ok := ctx.constInt(f, in.B); ok {
				return -c, true
			}
		}
	}
	return 0, false
}
