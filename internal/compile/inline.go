package compile

import (
	"repro/internal/ir"
)

// inlineSmallFuncs performs the --fast inlining pass: calls to small leaf
// procedures are spliced into their callers, and procedures left without
// callers are dropped from the program — reproducing the paper's §V
// observation that --fast yields an IR "with too many functions removed
// or renamed" for reliable variable mapping (inlined callees' variables
// survive as caller-frame locals, but their functions disappear).
const inlineMaxInstrs = 28

func inlineSmallFuncs(p *ir.Program) {
	inlinable := make(map[*ir.Func]bool)
	for _, f := range p.Funcs {
		if isInlinable(f) {
			inlinable[f] = true
		}
	}
	for _, f := range p.Funcs {
		if f.IsRuntime {
			continue
		}
		inlineInto(f, inlinable)
		reassignSlots(f)
	}
	dropDeadFuncs(p)
}

// reassignSlots renumbers the frame after new locals were spliced in.
func reassignSlots(f *ir.Func) {
	slot := 0
	for _, v := range f.Params {
		v.Slot = slot
		slot++
	}
	if f.RetVar != nil {
		f.RetVar.Slot = slot
		slot++
	}
	for _, v := range f.Locals {
		v.Slot = slot
		slot++
	}
}

// isInlinable: small, leaf (no calls/spawns), single-purpose procedures.
func isInlinable(f *ir.Func) bool {
	if f.IsRuntime || f.Outlined || f.Sym == nil {
		return false
	}
	n := 0
	rets := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			n++
			switch in.Op {
			case ir.OpCall, ir.OpSpawn, ir.OpBuiltin:
				return false
			case ir.OpRet:
				rets++
			}
		}
	}
	// Single return point keeps the splice simple.
	return n <= inlineMaxInstrs && rets == 1
}

// inlineInto replaces calls to inlinable callees inside f.
func inlineInto(f *ir.Func, inlinable map[*ir.Func]bool) {
	for changed := true; changed; {
		changed = false
		for bi := 0; bi < len(f.Blocks); bi++ {
			b := f.Blocks[bi]
			for ii, in := range b.Instrs {
				if in.Op != ir.OpCall || !inlinable[in.Callee] || in.Callee == f {
					continue
				}
				spliceCall(f, b, ii, in)
				changed = true
				break
			}
			if changed {
				break
			}
		}
	}
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// spliceCall inlines one call site: block b splits at instruction index
// ci; the callee's blocks are cloned in between with variables remapped.
func spliceCall(f *ir.Func, b *ir.Block, ci int, call *ir.Instr) {
	callee := call.Callee

	// Variable remapping: params bind to arguments (ref params alias the
	// argument var directly; value params copy into a fresh local), the
	// return slot feeds the call's destination, locals become fresh
	// caller locals (keeping their symbols for debug fidelity).
	remap := make(map[*ir.Var]*ir.Var)
	var prologue []*ir.Instr
	for k, p := range callee.Params {
		if k >= len(call.Args) {
			break
		}
		arg := call.Args[k]
		if p.IsRef {
			remap[p] = arg
			continue
		}
		local := &ir.Var{Name: p.Name, Sym: p.Sym, Type: p.Type, Func: f}
		f.Locals = append(f.Locals, local)
		remap[p] = local
		prologue = append(prologue, &ir.Instr{Op: ir.OpMove, Dst: local, A: arg, Pos: call.Pos})
	}
	var retLocal *ir.Var
	if callee.RetVar != nil {
		retLocal = &ir.Var{Name: callee.RetVar.Name, Type: callee.RetVar.Type, Func: f, IsTemp: true}
		f.Locals = append(f.Locals, retLocal)
		remap[callee.RetVar] = retLocal
	}
	for _, l := range callee.Locals {
		nl := &ir.Var{Name: l.Name, Sym: l.Sym, Type: l.Type, Func: f, IsTemp: l.IsTemp, IsRef: l.IsRef}
		f.Locals = append(f.Locals, nl)
		remap[l] = nl
	}
	mapVar := func(v *ir.Var) *ir.Var {
		if v == nil {
			return nil
		}
		if nv, ok := remap[v]; ok {
			return nv
		}
		return v
	}

	// Continuation block: the instructions after the call.
	cont := &ir.Block{Func: f}
	cont.Instrs = append(cont.Instrs, b.Instrs[ci+1:]...)
	b.Instrs = b.Instrs[:ci]
	b.Instrs = append(b.Instrs, prologue...)

	// Clone callee blocks.
	clones := make(map[*ir.Block]*ir.Block)
	var newBlocks []*ir.Block
	for _, cb := range callee.Blocks {
		nb := &ir.Block{Func: f}
		clones[cb] = nb
		newBlocks = append(newBlocks, nb)
	}
	for _, cb := range callee.Blocks {
		nb := clones[cb]
		for _, cin := range cb.Instrs {
			ni := &ir.Instr{
				Op: cin.Op, BinOp: cin.BinOp, FieldIx: cin.FieldIx,
				Method: cin.Method, Callee: cin.Callee, Lit: cin.Lit,
				Rebind: cin.Rebind, Pos: cin.Pos,
			}
			ni.Dst = mapVar(cin.Dst)
			ni.A = mapVar(cin.A)
			ni.B = mapVar(cin.B)
			for _, a := range cin.Args {
				ni.Args = append(ni.Args, mapVar(a))
			}
			if cin.Op == ir.OpRet {
				// Deliver the return value and continue after the call.
				if call.Dst != nil && cin.A != nil {
					nb.Instrs = append(nb.Instrs, &ir.Instr{Op: ir.OpMove, Dst: call.Dst, A: mapVar(cin.A), Pos: cin.Pos})
				}
				nb.Instrs = append(nb.Instrs, &ir.Instr{Op: ir.OpJmp, Targets: [2]*ir.Block{cont}, Pos: cin.Pos})
				continue
			}
			ni.Targets[0] = clones[cin.Targets[0]]
			ni.Targets[1] = clones[cin.Targets[1]]
			nb.Instrs = append(nb.Instrs, ni)
		}
	}

	// Wire: b → callee entry; insert clones + cont after b.
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpJmp, Targets: [2]*ir.Block{clones[callee.Entry()]}, Pos: call.Pos})
	insertAt := indexOfBlock(f, b) + 1
	rest := append([]*ir.Block{}, f.Blocks[insertAt:]...)
	f.Blocks = append(f.Blocks[:insertAt], append(append(newBlocks, cont), rest...)...)
}

func indexOfBlock(f *ir.Func, b *ir.Block) int {
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	return len(f.Blocks) - 1
}

// dropDeadFuncs removes procedures no remaining call or spawn references —
// the "functions removed by --fast" effect.
func dropDeadFuncs(p *ir.Program) {
	used := make(map[*ir.Func]bool)
	used[p.Main] = true
	used[p.ModuleInit] = true
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if !used[f] {
				continue
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, c := range in.Callees() {
						if !used[c] {
							used[c] = true
							changed = true
						}
					}
				}
			}
		}
	}
	kept := p.Funcs[:0]
	for _, f := range p.Funcs {
		if used[f] || f.IsRuntime {
			kept = append(kept, f)
		}
	}
	p.Funcs = kept
}
