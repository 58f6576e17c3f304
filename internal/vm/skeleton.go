package vm

import (
	"io"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/types"
)

// Skeleton mode runs a program for static comm prediction
// (internal/analyze/cost): the real scheduler, tasking layer and comm
// runtime produce the access trace, but the contents of arrays whose
// elements are not int are not tracked. A load from such an array
// yields KUnk, shaped like the element so that copy costs — and with
// them the schedule — match a real run: tuples and records keep their
// shape with KUnk leaves, class handles stay known, and a nested array
// becomes a KUnk that keeps its allocation (Arr). Accesses and copies
// through such a reference reach the real array, so their comm and
// cost are charged exactly, but its size and bounds read as KUnk.
// Arithmetic, comparisons, reductions and math builtins on KUnk yield
// KUnk. The run aborts with a RuntimeError as soon as KUnk would decide
// anything the trace depends on: a branch, a subscript into a
// distributed array, a range or domain bound, a tuple index or an
// iteration space. A completed skeleton run therefore predicts the comm
// of every input that shares the program's int data.

// NewSkeleton creates a VM in skeleton mode. It always interprets (a
// compiled backend registered for prog is ignored), discards program
// output and injects no faults; cfg.MaxCycles bounds the run.
func NewSkeleton(prog *ir.Program, cfg Config) *VM {
	cfg.Stdout = io.Discard
	cfg.Fault = nil
	cfg.CommRetry = fault.RetryPolicy{}
	m := New(prog, cfg)
	m.skel = true
	m.sliceFn = nil
	return m
}

// tracksContents reports whether skeleton mode keeps arr's element
// values: int elements (indirect subscripts such as A[B[i]] need them)
// and the predeclared Locales array (ElemT nil).
func tracksContents(arr *ArrayVal) bool {
	if arr.ElemT == nil {
		return true
	}
	b, ok := arr.ElemT.(*types.Basic)
	return ok && b.K == types.Int
}

// unknownOf is v as an element of an untracked array reads: scalars
// become KUnk and tuples and records keep their shape. With refs, class
// handles stay known and arrays become a KUnk that keeps the
// allocation; without (the element's index is unknown, so which
// allocation it names is too), they become plain KUnk.
func unknownOf(v *Value, refs bool) Value {
	v = v.Deref()
	switch {
	case v.K == KTuple || v.K == KRecord:
		out := Value{K: v.K, RT: v.RT, Elems: make([]Value, len(v.Elems))}
		for i := range v.Elems {
			out.Elems[i] = unknownOf(&v.Elems[i], refs)
		}
		return out
	case refs && (v.K == KClass || v.K == KNil):
		return *v
	case refs && v.K == KArray:
		return Value{K: KUnk, Arr: v.Arr}
	}
	return Value{K: KUnk}
}

// unknownElem resolves an element access whose subscript is KUnk. A
// distributed array aborts the run: the element's home, and so the
// trace, depends on the unknown. Any other array has one home, so the
// access is charged exactly and the element reads as unknown, shaped
// like the array's elements.
func (m *VM) unknownElem(t *Task, in *ir.Instr, arr *ArrayVal) (*Value, *ArrayVal, []int64, bool) {
	o := arr.Owner()
	if o.DistBlock && o.NumLoc > 1 {
		name := "?"
		if o.OwnerVar != nil {
			name = o.OwnerVar.Name
		}
		m.fail(t, in, "data-dependent index into %s at %v", name, in.Pos)
		return nil, nil, nil, false
	}
	u := Value{K: KUnk}
	if len(o.Data) > 0 {
		u = unknownOf(&o.Data[0], false)
	}
	return &u, o, nil, true
}

// forget poisons a tracked array after a write through an unknown
// subscript: any of its elements may have changed.
func forget(arr *ArrayVal) {
	if !tracksContents(arr) {
		return
	}
	for i := range arr.Data {
		arr.Data[i] = Value{K: KUnk}
	}
}

// skelBuiltin handles builtins whose arguments include KUnk: math
// yields KUnk, an assertion on unknown data passes (it decides no comm),
// and an unknown range stride aborts. handled=false leaves the builtin
// to doBuiltin.
func (m *VM) skelBuiltin(t *Task, in *ir.Instr) (cycles uint64, handled, ok bool) {
	unk := false
	for _, a := range in.Args {
		if m.readPtr(t, a).K == KUnk {
			unk = true
		}
	}
	if !unk {
		return 0, false, true
	}
	switch in.Method {
	case "sqrt", "cbrt", "exp", "log", "sin", "cos", "floor", "ceil":
		m.assignVarV(t, in.Dst, Value{K: KUnk}, in)
		return m.cost(m.Cfg.Costs.MathBuiltin), true, true
	case "abs", "sgn", "min", "max":
		m.assignVarV(t, in.Dst, Value{K: KUnk}, in)
		return 0, true, true
	case "assert":
		return 0, true, true
	case "stride_check":
		m.fail(t, in, "data-dependent range stride at %v", in.Pos)
		return 0, true, false
	}
	return 0, false, true
}

// evalUnknownArrayBin promotes an operation over an unknown array
// reference exactly as over the array; the result stays unknown.
func (m *VM) evalUnknownArrayBin(op token.Kind, a, b *Value) (Value, uint64, bool) {
	known := func(v *Value) *Value {
		if v.K == KUnk && v.Arr != nil {
			return &Value{K: KArray, Arr: v.Arr}
		}
		return v
	}
	v, extra, ok := m.evalBin(op, known(a), known(b))
	if v.K == KArray {
		v.K = KUnk
	}
	return v, extra, ok
}
