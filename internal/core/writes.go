package core

import (
	"repro/internal/ir"
)

// writeInfo computes, per function, which variables (by local alias class)
// are actually written — directly or transitively through callees' ref
// formals. It distinguishes a callee that *writes* a ref formal from one
// that only reads it, so call sites blame only arguments the call can
// mutate (plus global-classed descriptors, handled separately).
type writeInfo struct {
	// localRep is a per-function union-find over that function's own
	// alias instructions (refs bind to their bases within one frame).
	localRep map[*ir.Func]map[*ir.Var]*ir.Var
	// written[f] holds the local reps f writes.
	written map[*ir.Func]map[*ir.Var]bool
}

func newWriteInfo(prog *ir.Program) *writeInfo {
	w := &writeInfo{
		localRep: make(map[*ir.Func]map[*ir.Var]*ir.Var),
		written:  make(map[*ir.Func]map[*ir.Var]bool),
	}
	for _, f := range prog.Funcs {
		w.localRep[f] = make(map[*ir.Var]*ir.Var)
		w.written[f] = make(map[*ir.Var]bool)
	}
	// Local alias classes.
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if base := in.AliasBase(); base != nil && in.Dst != nil {
					w.union(f, in.Dst, base)
				}
			}
		}
	}
	// Direct writes.
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if v := directWriteTarget(in); v != nil {
					w.written[f][w.find(f, v)] = true
				}
			}
		}
	}
	// Transitive writes through callee ref formals (fixpoint over the
	// call graph).
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, bd := range in.Bindings() {
						for k, p := range bd.Formals {
							if !p.IsRef || !w.written[bd.Callee][w.find(bd.Callee, p)] {
								continue
							}
							rep := w.find(f, bd.Actuals[k])
							if !w.written[f][rep] {
								w.written[f][rep] = true
								changed = true
							}
						}
					}
				}
			}
		}
	}
	// Fully path-compress every per-function union-find so later find()
	// calls are pure reads (see find).
	for f, m := range w.localRep {
		for v := range m {
			w.find(f, v)
		}
	}
	return w
}

// directWriteTarget returns the variable a non-call instruction truly
// writes (ref bindings and zip markers are not writes).
func directWriteTarget(in *ir.Instr) *ir.Var {
	switch in.Op {
	case ir.OpBuiltin:
		if isAtomicWrite(in.Method) {
			return in.A
		}
		return nil
	case ir.OpRefElem, ir.OpRefField, ir.OpSlice,
		ir.OpZipSetup, ir.OpZipAdvance,
		ir.OpCall, ir.OpSpawn,
		ir.OpRet, ir.OpJmp, ir.OpBr, ir.OpNop, ir.OpYield:
		return nil
	case ir.OpMove:
		if in.Rebind {
			return nil // `ref r = x` binds, it does not write
		}
	}
	if in.IsStoreThrough() {
		return in.Dst
	}
	return in.Dst
}

// WritesParam reports whether fn writes (directly or transitively) the
// given formal.
func (w *writeInfo) WritesParam(fn *ir.Func, p *ir.Var) bool {
	return w.written[fn][w.find(fn, p)]
}

func (w *writeInfo) find(f *ir.Func, v *ir.Var) *ir.Var {
	m := w.localRep[f]
	p, ok := m[v]
	if !ok || p == v {
		return v
	}
	r := w.find(f, p)
	// Compress only stale entries; after newWriteInfo's full compression
	// pass this is write-free, so WritesParam is safe for concurrent
	// readers of a shared Analysis.
	if r != p {
		m[v] = r
	}
	return r
}

func (w *writeInfo) union(f *ir.Func, x, y *ir.Var) {
	rx, ry := w.find(f, x), w.find(f, y)
	if rx != ry {
		w.localRep[f][rx] = ry
	}
}
