package vm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// query implements OpQuery (size/low/high/domain/... pseudo-fields).
func (m *VM) query(t *Task, in *ir.Instr) (Value, bool) {
	v := m.readVal(t, in.A)
	switch in.Method {
	case "size", "length", "numIndices", "numElements":
		switch v.K {
		case KRange:
			return IntVal(v.Rng().Size()), true
		case KDomain:
			return IntVal(v.Dom().Size()), true
		case KArray:
			return IntVal(v.Arr().Dom.Size()), true
		case KTuple:
			return IntVal(int64(len(v.Elems))), true
		}
	case "low", "first":
		switch v.K {
		case KRange:
			return IntVal(v.Rng().Lo), true
		case KDomain:
			d := v.Dom()
			if d.Rank == 1 {
				return IntVal(d.Dims[0].Lo), true
			}
			out := Value{K: KTuple, Elems: make([]Value, d.Rank)}
			for i := 0; i < d.Rank; i++ {
				out.Elems[i] = IntVal(d.Dims[i].Lo)
			}
			return out, true
		}
	case "high", "last":
		switch v.K {
		case KRange:
			return IntVal(v.Rng().Hi), true
		case KDomain:
			d := v.Dom()
			if d.Rank == 1 {
				return IntVal(d.Dims[0].Hi), true
			}
			out := Value{K: KTuple, Elems: make([]Value, d.Rank)}
			for i := 0; i < d.Rank; i++ {
				out.Elems[i] = IntVal(d.Dims[i].Hi)
			}
			return out, true
		}
	case "domain":
		if v.K == KArray {
			return DomVal(v.Arr().Dom), true
		}
	case "dimlow":
		d, ok := asDomain(v)
		if ok && in.FieldIx < d.Rank {
			return IntVal(d.Dims[in.FieldIx].Lo), true
		}
	case "dimhigh":
		d, ok := asDomain(v)
		if ok && in.FieldIx < d.Rank {
			return IntVal(d.Dims[in.FieldIx].Hi), true
		}
	case "ziplow":
		switch v.K {
		case KRange:
			return IntVal(v.Rng().Lo), true
		case KDomain:
			return IntVal(v.Dom().Dims[0].Lo), true
		case KArray:
			return IntVal(v.Arr().Dom.Dims[0].Lo), true
		}
	case "id":
		if v.K == KLocale {
			return IntVal(v.I), true
		}
	case "name":
		if v.K == KLocale {
			return StrVal(fmt.Sprintf("locale%d", v.I)), true
		}
	case "maxTaskPar", "numCores":
		if v.K == KLocale {
			return IntVal(int64(m.Cfg.NumCores)), true
		}
	}
	if v.K == KUnk {
		return Value{K: KUnk}, true
	}
	m.fail(t, in, "query .%s on %s", in.Method, v)
	return Value{}, false
}

func asDomain(v Value) (DomainVal, bool) {
	switch v.K {
	case KDomain:
		return v.Dom(), true
	case KArray:
		return v.Arr().Dom, true
	case KRange:
		return DomainVal{Rank: 1, Dims: [3]RangeVal{v.Rng()}}, true
	}
	return DomainVal{}, false
}

// domMethod implements OpDomMethod (expand/translate/dim/interior/...).
func (m *VM) domMethod(t *Task, in *ir.Instr) (Value, bool) {
	v := m.readVal(t, in.A)
	if m.skel {
		for _, a := range in.Args {
			if m.readPtr(t, a).K == KUnk {
				m.fail(t, in, "data-dependent domain bound at %v", in.Pos)
				return Value{}, false
			}
		}
		if v.K == KUnk {
			return Value{K: KUnk}, true
		}
	}
	argInt := func(i int) int64 {
		if i < len(in.Args) {
			return m.readVal(t, in.Args[i]).AsInt()
		}
		return 0
	}
	switch in.Method {
	case "expand":
		if v.K == KDomain {
			return DomVal(v.Dom().Expand(argInt(0))), true
		}
	case "translate":
		if v.K == KDomain {
			return DomVal(v.Dom().Translate(argInt(0))), true
		}
	case "interior", "exterior":
		if v.K == KDomain {
			// Simplified: interior(k) shrinks by |k| on the high side.
			d := v.Dom()
			k := argInt(0)
			if k < 0 {
				k = -k
			}
			for i := 0; i < d.Rank; i++ {
				d.Dims[i].Hi -= k
			}
			return DomVal(d), true
		}
	case "dim":
		d, ok := asDomain(v)
		if ok {
			i := argInt(0) - 1 // Chapel dims are 1-based
			if i >= 0 && int(i) < d.Rank {
				return RngVal(d.Dims[i]), true
			}
		}
	case "size":
		d, ok := asDomain(v)
		if ok {
			return IntVal(d.Size()), true
		}
	case "reindex":
		if v.K == KArray {
			return v, true
		}
	}
	m.fail(t, in, "method .%s on %s", in.Method, v)
	return Value{}, false
}

// doBuiltin executes OpBuiltin; returns extra cycles.
func (m *VM) doBuiltin(t *Task, in *ir.Instr) (uint64, bool) {
	name := in.Method
	if strings.HasPrefix(name, "config:") {
		return m.configBuiltin(t, in, strings.TrimPrefix(name, "config:"))
	}
	if strings.HasPrefix(name, "reduce:") {
		return m.reduceBuiltin(t, in, strings.TrimPrefix(name, "reduce:"))
	}
	if strings.HasPrefix(name, "atomic:") {
		return m.atomicBuiltin(t, in, strings.TrimPrefix(name, "atomic:"))
	}
	if m.skel {
		if cycles, handled, ok := m.skelBuiltin(t, in); handled {
			return cycles, ok
		}
	}
	argV := func(i int) Value {
		if i < len(in.Args) {
			return m.readVal(t, in.Args[i])
		}
		return Value{}
	}
	switch name {
	case "writeln", "write":
		var b strings.Builder
		for _, a := range in.Args {
			b.WriteString(m.readVal(t, a).String())
		}
		if name == "writeln" {
			b.WriteByte('\n')
		}
		fmt.Fprint(m.Cfg.Stdout, b.String())
		return m.cost(costs.WriteBuiltin), true
	case "sqrt":
		m.assignVarV(t, in.Dst, RealVal(math.Sqrt(argV(0).AsReal())), in)
	case "cbrt":
		m.assignVarV(t, in.Dst, RealVal(math.Cbrt(argV(0).AsReal())), in)
	case "exp":
		m.assignVarV(t, in.Dst, RealVal(math.Exp(argV(0).AsReal())), in)
	case "log":
		m.assignVarV(t, in.Dst, RealVal(math.Log(argV(0).AsReal())), in)
	case "sin":
		m.assignVarV(t, in.Dst, RealVal(math.Sin(argV(0).AsReal())), in)
	case "cos":
		m.assignVarV(t, in.Dst, RealVal(math.Cos(argV(0).AsReal())), in)
	case "floor":
		m.assignVarV(t, in.Dst, RealVal(math.Floor(argV(0).AsReal())), in)
	case "ceil":
		m.assignVarV(t, in.Dst, RealVal(math.Ceil(argV(0).AsReal())), in)
	case "abs":
		v := argV(0)
		if v.K == KInt {
			if v.I < 0 {
				v.I = -v.I
			}
			m.assignVarV(t, in.Dst, v, in)
		} else {
			m.assignVarV(t, in.Dst, RealVal(math.Abs(v.AsReal())), in)
		}
	case "sgn":
		x := argV(0).AsReal()
		s := int64(0)
		if x > 0 {
			s = 1
		} else if x < 0 {
			s = -1
		}
		m.assignVarV(t, in.Dst, IntVal(s), in)
	case "min", "max":
		best := argV(0)
		isInt := best.K == KInt
		for i := 1; i < len(in.Args); i++ {
			v := argV(i)
			if v.K != KInt {
				isInt = false
			}
			if (name == "min" && v.AsReal() < best.AsReal()) ||
				(name == "max" && v.AsReal() > best.AsReal()) {
				best = v
			}
		}
		if !isInt && best.K == KInt {
			best = RealVal(best.AsReal())
		}
		m.assignVarV(t, in.Dst, best, in)
	case "getCurrentTime":
		secs := float64(m.coreOf(t).clock) / ClockHz
		m.assignVarV(t, in.Dst, RealVal(secs), in)
	case "assert":
		v := argV(0)
		if v.K != KBool || !v.B {
			m.fail(t, in, "assertion failed")
			return 0, false
		}
	case "exit", "halt":
		m.halted = true
	case "distribute:block":
		cell := m.cellOf(t, in.A).Deref()
		if cell.K == KDomain {
			// A copy of the shared domain payload, never a write
			// through it: other values may name the same box.
			d := cell.Dom()
			d.Dist = true
			m.bindCell(t, in.Dst, DomVal(d))
		}
	case "stride_check":
		if argV(0).AsInt() <= 0 {
			m.fail(t, in, "range stride must be positive")
			return 0, false
		}
	case "definit":
		if in.Dst != nil && in.Dst.Type != nil {
			m.bindCell(t, in.Dst, m.defaultValue(in.Dst.Type))
		}
	case "sync_begin":
		t.syncStack = append(t.syncStack, &joinGroup{})
	case "sync_end":
		n := len(t.syncStack)
		if n == 0 {
			m.fail(t, in, "sync_end without sync_begin")
			return 0, false
		}
		g := t.syncStack[n-1]
		t.syncStack = t.syncStack[:n-1]
		if g.pending > 0 {
			g.waiter = t
			t.blockedOn = g
		}
	default:
		m.fail(t, in, "unknown builtin %s", name)
		return 0, false
	}
	// Math builtin cost.
	switch name {
	case "sqrt", "cbrt", "exp", "log", "sin", "cos", "floor", "ceil":
		return m.cost(costs.MathBuiltin), true
	}
	return 0, true
}

// atomicBuiltin implements atomic read/write/add/sub/fetchAdd. The
// deterministic scheduler makes them trivially race-free; the cost and
// code-centric attribution model a LOCK-prefixed RMW (the
// atomic_fetch_add_explicit__real64 row in paper Fig. 4).
func (m *VM) atomicBuiltin(t *Task, in *ir.Instr, op string) (uint64, bool) {
	cell := m.cellOf(t, in.A).Deref()
	argV := func(i int) Value {
		if i < len(in.Args) {
			return m.readVal(t, in.Args[i])
		}
		return Value{}
	}
	switch op {
	case "read":
		m.assignVarV(t, in.Dst, *cell, in)
	case "write":
		*cell = argV(0).Copy()
	case "add", "sub", "fetchAdd":
		old := *cell
		delta := argV(0)
		var next Value
		switch {
		case cell.K == KUnk || delta.K == KUnk:
			next = Value{K: KUnk}
		case cell.K == KReal:
			d := delta.AsReal()
			if op == "sub" {
				d = -d
			}
			next = RealVal(cell.F + d)
		default:
			d := delta.AsInt()
			if op == "sub" {
				d = -d
			}
			next = IntVal(cell.AsInt() + d)
		}
		*cell = next
		if op == "fetchAdd" {
			m.assignVarV(t, in.Dst, old, in)
		}
	default:
		m.fail(t, in, "unknown atomic op %s", op)
		return 0, false
	}
	// RMW cost, attributed to the runtime's atomic implementation.
	m.rtCharge(t, m.cost(costs.AtomicOp), "atomic_fetch_add_explicit__real64")
	return 0, true
}

// configBuiltin resolves a `config const` value: command-line override or
// the compiled default.
func (m *VM) configBuiltin(t *Task, in *ir.Instr, name string) (uint64, bool) {
	def := m.readVal(t, in.Args[0])
	if raw, ok := m.Cfg.Configs[name]; ok {
		switch def.K {
		case KInt:
			n, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				m.fail(t, in, "config %s: bad int %q", name, raw)
				return 0, false
			}
			m.assignVarV(t, in.Dst, IntVal(n), in)
		case KReal:
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				m.fail(t, in, "config %s: bad real %q", name, raw)
				return 0, false
			}
			m.assignVarV(t, in.Dst, RealVal(f), in)
		case KBool:
			m.assignVarV(t, in.Dst, BoolVal(raw == "true" || raw == "1"), in)
		case KString:
			m.assignVarV(t, in.Dst, StrVal(raw), in)
		default:
			m.fail(t, in, "config %s: unsupported type", name)
			return 0, false
		}
		return 0, true
	}
	m.assignVarV(t, in.Dst, def, in)
	return 0, true
}

// reduceBuiltin folds an array with +, *, min (<) or max (>).
func (m *VM) reduceBuiltin(t *Task, in *ir.Instr, op string) (uint64, bool) {
	v := m.readVal(t, in.Args[0])
	if v.K != KArray && v.K != KUnk || v.Arr() == nil {
		m.fail(t, in, "reduce over non-array %s", v)
		return 0, false
	}
	arr := v.Arr()
	n := arr.Dom.Size()
	if m.skel && !tracksContents(arr) {
		// The fold reads the untracked contents.
		m.assignVarV(t, in.Dst, Value{K: KUnk}, in)
		return uint64(n) * m.cost(costs.PerElem), true
	}
	idx := make([]int64, arr.Dom.Rank)
	var accF float64
	var accI int64
	isInt := true
	first := true
	unk := false
	if op == "*" {
		accF, accI = 1, 1
	}
	for p := int64(0); p < n; p++ {
		arr.Dom.Unlinear(p, idx)
		c := arr.Cell(idx)
		if c == nil {
			continue
		}
		e := c.Deref()
		if e.K == KUnk {
			unk = true
			continue
		}
		if e.K != KInt {
			isInt = false
		}
		x := e.AsReal()
		xi := e.AsInt()
		switch op {
		case "+":
			accF += x
			accI += xi
		case "*":
			accF *= x
			accI *= xi
		case "<": // min reduce
			if first || x < accF {
				accF, accI = x, xi
			}
		case ">": // max reduce
			if first || x > accF {
				accF, accI = x, xi
			}
		}
		first = false
	}
	if unk {
		m.assignVarV(t, in.Dst, Value{K: KUnk}, in)
	} else if isInt {
		m.assignVarV(t, in.Dst, IntVal(accI), in)
	} else {
		m.assignVarV(t, in.Dst, RealVal(accF), in)
	}
	return uint64(n) * m.cost(costs.PerElem), true
}
