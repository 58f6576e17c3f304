package vm

import (
	"repro/internal/ir"
	"repro/internal/types"
)

// defSlot precomputes the default initializer of one local slot, so frame
// entry replaces a per-local type walk with a table scan. Ref locals get
// no defSlot (see defaultsFor).
type defSlot struct {
	slot int
	mode defMode
	v    Value
	typ  types.Type
}

type defMode uint8

const (
	// defDirect assigns v as-is (self-contained values: scalars, strings,
	// ranges, domains, locales — no shared backing storage).
	defDirect defMode = iota
	// defCopy assigns v.Copy() (tuples/records whose element storage must
	// be private per frame).
	defCopy
	// defDynamic re-evaluates defaultValue at every frame entry (records
	// with array fields allocate over the registered field-domain globals,
	// whose values can change between calls).
	defDynamic
)

// typeNeedsDynamic reports whether t's default value depends on VM state
// and must be rebuilt per frame rather than precomputed once.
func typeNeedsDynamic(t types.Type) bool {
	switch tt := t.(type) {
	case *types.TupleType:
		return typeNeedsDynamic(tt.Elem)
	case *types.RecordType:
		if tt.IsClass {
			return false
		}
		for _, f := range tt.Fields {
			if _, ok := f.Type.(*types.ArrayType); ok {
				return true
			}
			if typeNeedsDynamic(f.Type) {
				return true
			}
		}
		return false
	case *types.AtomicType:
		return typeNeedsDynamic(tt.Elem)
	}
	return false
}

// defaultsFor returns fn's precomputed local default initializers. Locals
// whose default is the zero Value are skipped outright: fresh slot arrays
// are already zeroed. So are ref locals (the ref temps of A[i], x.f and
// t(i), ref declarations and loop index aliases): each is bound by its
// alias definition before any read (sem rejects a ref declaration without
// an initializer), so a default would be cloned only to be overwritten.
func (m *VM) defaultsFor(fn *ir.Func) []defSlot {
	if d, ok := m.defSlots[fn]; ok {
		return d
	}
	out := make([]defSlot, 0, len(fn.Locals))
	for _, l := range fn.Locals {
		if l.Type == nil || l.IsRef {
			continue
		}
		if typeNeedsDynamic(l.Type) {
			out = append(out, defSlot{slot: l.Slot, mode: defDynamic, typ: l.Type})
			continue
		}
		v := m.defaultValue(l.Type)
		if v.K == KNil {
			continue
		}
		mode := defDirect
		if v.K == KTuple || v.K == KRecord {
			mode = defCopy
		}
		out = append(out, defSlot{slot: l.Slot, mode: mode, v: v})
	}
	m.defSlots[fn] = out
	return out
}

// initLocals default-initializes act's locals by declared type (globals
// are zeroed the same way at startup), leaving slots a parameter already
// bound. Indexed iteration: a defSlot embeds a 64-byte Value, which a
// range copy per default would move once more.
func (m *VM) initLocals(act *Activation) {
	defs := m.defaultsFor(act.F)
	for i := range defs {
		d := &defs[i]
		if act.Slots[d.slot].K != KNil {
			continue // parameter-aliased slot already bound
		}
		switch d.mode {
		case defDirect:
			act.Slots[d.slot] = d.v
		case defCopy:
			copyValueInto(&act.Slots[d.slot], &d.v)
		default:
			act.Slots[d.slot] = m.defaultValue(d.typ)
		}
	}
}
