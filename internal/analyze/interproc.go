package analyze

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/source"
)

// Interprocedural write summaries (ROADMAP open item: trace writes to
// globals through callee chains beyond one level — the CLOMP
// `update_part` pattern). For every function the analyzer computes the
// set of global variables the function writes, directly or through any
// depth of calls, together with the *guard set*: the function's formal
// parameters whose values select which element is written. A parallel
// loop body calling such a function races on the global unless at least
// one guard receives a loop-index-derived actual (the same partition
// proof the intraprocedural race check uses).

// gWrite summarizes one write to a global reachable from a function:
// which global, which formals partition it (bitset over the first 64
// params), where the write lives, and the call chain that reaches it.
type gWrite struct {
	global *ir.Var
	guards uint64
	pos    source.Pos
	via    string // callee chain below this function ("" = direct write)
}

// interprocWrites returns (building on first use) the global-write
// summaries for every function, propagated to a fixpoint over the call
// graph. Spawn sites are excluded: nested parallel bodies are their own
// race-analysis unit.
func (ctx *Context) interprocWrites() map[*ir.Func][]gWrite {
	if ctx.iprocWrites != nil {
		return ctx.iprocWrites
	}
	sums := make(map[*ir.Func][]gWrite)
	type wkey struct {
		global *ir.Var
		guards uint64
		pos    source.Pos
	}
	seen := make(map[*ir.Func]map[wkey]bool)
	add := func(f *ir.Func, gw gWrite) bool {
		k := wkey{gw.global, gw.guards, gw.pos}
		if seen[f] == nil {
			seen[f] = make(map[wkey]bool)
		}
		if seen[f][k] {
			return false
		}
		seen[f][k] = true
		sums[f] = append(sums[f], gw)
		return true
	}

	// Direct writes.
	bits := make(map[*ir.Func]map[*ir.Var]uint64)
	sel := make(map[*ir.Func]map[*ir.Var]uint64)
	for _, f := range ctx.Prog.Funcs {
		if f.IsRuntime {
			continue
		}
		bits[f], sel[f] = ctx.paramDeriv(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				g, guards, ok := ctx.globalWrite(f, in, bits[f], sel[f])
				if ok {
					add(f, gWrite{global: g, guards: guards, pos: in.Pos})
				}
			}
		}
	}

	// Transitive: map a callee's guard params onto the caller's actuals.
	for changed := true; changed; {
		changed = false
		for _, f := range ctx.Prog.Funcs {
			if f.IsRuntime {
				continue
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpCall || in.Callee == nil || in.Callee == f {
						continue
					}
					for _, gw := range sums[in.Callee] {
						var mapped uint64
						for j, a := range in.BindingOf(in.Callee).Actuals {
							if j < 64 && gw.guards&(1<<uint(j)) != 0 {
								mapped |= bits[f][a]
							}
						}
						via := in.Callee.Name
						if gw.via != "" {
							via += " -> " + gw.via
						}
						if add(f, gWrite{global: gw.global, guards: mapped, pos: gw.pos, via: via}) {
							changed = true
						}
					}
				}
			}
		}
	}
	for _, ws := range sums {
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].pos != ws[j].pos {
				return ws[i].pos.Before(ws[j].pos)
			}
			return ws[i].via < ws[j].via
		})
	}
	ctx.iprocWrites = sums
	return sums
}

// paramDeriv computes, per variable of f, which formals the variable's
// value derives from (bits) and which formals selected the element a
// ref/handle is bound to (sel) — both as bitsets over the first 64
// params. sel mirrors rootBase's chain-following: alias defs and
// class-handle copies.
func (ctx *Context) paramDeriv(f *ir.Func) (bitsOf, selOf map[*ir.Var]uint64) {
	bitsOf = make(map[*ir.Var]uint64)
	selOf = make(map[*ir.Var]uint64)
	for i, p := range f.Params {
		if i < 64 {
			bitsOf[p] = 1 << uint(i)
		}
	}
	merge := func(m map[*ir.Var]uint64, v *ir.Var, b uint64) bool {
		if v == nil || m[v]&b == b {
			return false
		}
		m[v] |= b
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.IsAliasDef():
					s := selOf[in.A] | bitsOf[in.B]
					for _, a := range in.Args {
						s |= bitsOf[a]
					}
					if merge(selOf, in.Dst, s) {
						changed = true
					}
					if merge(bitsOf, in.Dst, bitsOf[in.A]) {
						changed = true
					}
				case in.Def() != nil && !in.IsStoreThrough():
					var v uint64
					for _, u := range in.Uses() {
						v |= bitsOf[u]
					}
					if merge(bitsOf, in.Dst, v) {
						changed = true
					}
					// Class-handle copies name the same instance, so the
					// selection travels with the handle (cf. rootBase).
					if base := in.AliasBase(); base != nil {
						s := selOf[base]
						for _, a := range in.Args {
							s |= bitsOf[a]
						}
						if merge(selOf, in.Dst, s) {
							changed = true
						}
					}
				}
			}
		}
	}
	return bitsOf, selOf
}

// globalWrite reports whether in writes (through any local ref/handle
// chain) a global variable, returning the global and the guard bitset of
// formals that partition the written element. Atomic builtins are
// synchronization, not races.
func (ctx *Context) globalWrite(f *ir.Func, in *ir.Instr, bitsOf, selOf map[*ir.Var]uint64) (*ir.Var, uint64, bool) {
	switch {
	case in.Op == ir.OpBuiltin || in.Op == ir.OpSpawn || in.Op == ir.OpCall:
		return nil, 0, false
	case in.IsStoreThrough():
		root := ctx.rootBase(f, in.Dst)
		if root == nil || !root.IsGlobal {
			return nil, 0, false
		}
		guards := selOf[in.Dst] | bitsOf[in.B]
		for _, a := range in.Args {
			guards |= bitsOf[a]
		}
		return root, guards, true
	case in.Def() != nil && !in.IsAliasDef():
		v := in.Dst
		if v == nil {
			return nil, 0, false
		}
		if v.IsGlobal {
			return v, 0, true
		}
		if v.IsRef && !v.IsParam {
			if root := ctx.rootBase(f, v); root != nil && root.IsGlobal {
				return root, selOf[v], true
			}
		}
	}
	return nil, 0, false
}
