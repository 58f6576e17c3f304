package analyze

import (
	"fmt"

	"repro/internal/ir"
)

// RacePass flags writes inside forall/coforall bodies that hit storage
// shared across iterations — captured outer variables and globals — when
// the write is neither atomic, nor folded by a reduce, nor partitioned by
// the loop index. The alias classes and written-vars analysis it builds on
// are the blame core's (paper §IV.A); the extra ingredient is the
// index-taint partition proof.
type RacePass struct{}

// Name is the pass name its findings carry.
func (RacePass) Name() string { return "forall-race" }

// RunFunc implements funcPass.
func (RacePass) RunFunc(ctx *Context, f *ir.Func) []Diag {
	sp, ok := ctx.ParallelBody(f)
	if !ok {
		return nil
	}
	nidx := len(sp.BindingOf(f).Idx)
	ti := ctx.bodyTaint(f)
	paramIx := make(map[*ir.Var]int, len(f.Params))
	for i, p := range f.Params {
		paramIx[p] = i
	}
	// shared reports whether v names storage visible to every iteration:
	// a by-ref capture (outer locals and bundled globals) beyond the index
	// params. By-value captures are per-task copies.
	shared := func(v *ir.Var) bool {
		if v == nil {
			return false
		}
		if v.IsGlobal {
			return true
		}
		ix, isParam := paramIx[v]
		return isParam && v.IsRef && ix >= nidx
	}
	var out []Diag
	report := func(in *ir.Instr, v *ir.Var, how string) {
		name := ctx.DisplayName(v)
		if name == "" {
			name = v.Name
		}
		out = append(out, Diag{
			Pass:     RacePass{}.Name(),
			Severity: Warning,
			Pos:      in.Pos,
			Fn:       f,
			Var:      name,
			Message: fmt.Sprintf("%s loop body %s shared variable '%s' without synchronization: "+
				"the write is not atomic, not a reduction, and not partitioned by the loop index",
				sp.Spawn.Kind, how, name),
			FixHint: fmt.Sprintf("make '%s' atomic, rewrite the loop as a reduce expression, "+
				"or index the write by the loop variable so iterations touch disjoint elements", name),
		})
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpBuiltin:
				// Atomic read-modify-writes are synchronization; nothing
				// else a builtin writes is shared.
				continue
			case in.Op == ir.OpSpawn:
				// Nested parallel bodies are their own analysis unit.
				continue
			case in.Op == ir.OpCall:
				if in.Callee == nil {
					continue
				}
				bd := in.BindingOf(in.Callee)
				for k, p := range bd.Formals {
					arg := bd.Actuals[k]
					if !p.IsRef || !ctx.Analysis.CalleeWritesParam(in.Callee, p) {
						continue
					}
					if ti.partRef[arg] || ti.tainted[arg] {
						continue
					}
					if root := ctx.rootBase(f, arg); shared(root) {
						report(in, root, fmt.Sprintf("passes ref to '%s' (which writes it), aliasing", in.Callee.Name))
					}
				}
				// Globals written anywhere down the call chain race unless
				// a guard formal receives an index-derived actual (the
				// interprocedural form of the partition proof).
				seenGlobals := map[*ir.Var]bool{}
				for _, gw := range ctx.interprocWrites()[in.Callee] {
					if seenGlobals[gw.global] {
						continue
					}
					partitioned := false
					for j, a := range bd.Actuals {
						if j < 64 && gw.guards&(1<<uint(j)) != 0 && (ti.tainted[a] || ti.partRef[a]) {
							partitioned = true
							break
						}
					}
					if partitioned {
						continue
					}
					seenGlobals[gw.global] = true
					how := fmt.Sprintf("calls '%s', which writes", in.Callee.Name)
					if gw.via != "" {
						how = fmt.Sprintf("calls '%s', which (via %s) writes", in.Callee.Name, gw.via)
					}
					report(in, gw.global, how)
				}
			case in.IsStoreThrough():
				partitioned := ti.anyTainted(in.Args) || ti.partRef[in.Dst] ||
					(in.Op == ir.OpTupleSet && ti.tainted[in.B])
				if partitioned {
					continue
				}
				if root := ctx.rootBase(f, in.Dst); shared(root) {
					report(in, root, "stores into")
				}
			case in.Def() != nil && !in.IsAliasDef():
				v := in.Dst
				if v.IsRef && !v.IsParam {
					// Write through a local ref alias (rebinds are alias
					// defs and never reach here): private iff the binding
					// chain selected an index-partitioned element.
					if ti.partRef[v] {
						continue
					}
					if root := ctx.rootBase(f, v); shared(root) {
						report(in, root, "writes through a local ref into")
					}
					continue
				}
				if ix, isP := paramIx[v]; isP && ix < nidx {
					continue // the index itself
				}
				if shared(v) {
					report(in, v, "assigns")
				}
			}
		}
	}
	return out
}
