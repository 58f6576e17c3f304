package vm

import (
	"repro/internal/arith"
	"repro/internal/comm"
	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/types"
)

// step executes one instruction (or advances the task's iteration driver).
// Returns false when the task blocked or finished.
func (m *VM) step(t *Task) bool {
	act := t.Top()
	if act == nil {
		if t.iter != nil && t.iter.pos < t.iter.end {
			m.startIterCall(t)
			return true
		}
		m.taskFinished(t)
		return false
	}
	if act.Block == nil || act.Idx >= len(act.Block.Instrs) {
		m.popFrame(t, nil)
		return true
	}
	in := act.Block.Instrs[act.Idx]
	m.Stats.Instructions++

	// Static cost (with --fast scaling and i-cache surcharge) comes from
	// the precomputed per-instruction table.
	cycles := m.costTab[in.Addr]
	var acc *ArrayVal

	advance := true
	switch in.Op {
	case ir.OpNop, ir.OpYield, ir.OpZipSetup, ir.OpZipAdvance:
		// cost-only markers

	case ir.OpConst:
		m.bindCell(t, in.Dst, litValue(in.Lit))

	case ir.OpMove:
		if in.Rebind && in.A != m.hereVar {
			// `ref r = x`: bind r to x's storage instead of copying, so
			// writes through r reach x (and the blame edge is an alias).
			m.bindCell(t, in.Dst, MakeRef(m.cellOf(t, in.A)))
			break
		}
		src := m.readPtr(t, in.A)
		cycles += m.assignVar(t, in.Dst, src, in)

	case ir.OpBin:
		a := m.readPtr(t, in.A)
		b := m.readPtr(t, in.B)
		// Fast path: int/real/bool operands into a non-composite cell
		// write the result in place (assignVar would reduce to a plain
		// scalar store anyway), skipping two 64-byte Value copies.
		if in.Dst != nil {
			dst := m.cellOf(t, in.Dst)
			if dst.K == KRef {
				dst = dst.Deref()
			}
			if dst.K != KArray && dst.K != KTuple && dst.K != KRecord {
				if handled, ok := binScalarInto(in.BinOp, a, b, dst); handled {
					if !ok {
						m.fail(t, in, "invalid operands for %s: %s and %s", in.BinOp, a, b)
						return false
					}
					break
				}
			}
		}
		v, extra, ok := m.evalBin(in.BinOp, a, b)
		if !ok {
			m.fail(t, in, "invalid operands for %s: %s and %s", in.BinOp, a, b)
			return false
		}
		cycles += extra
		m.assignVar(t, in.Dst, &v, in)

	case ir.OpUn:
		a := m.readPtr(t, in.A)
		v, ok := evalUn(in.BinOp, a)
		if !ok {
			m.fail(t, in, "invalid operand for unary %s: %s", in.BinOp, a)
			return false
		}
		m.assignVar(t, in.Dst, &v, in)

	case ir.OpMakeTuple:
		// Elements are not copied here: assignVar deep-copies composites
		// when it stores the tuple, and the intermediate is never aliased.
		elems := make([]Value, len(in.Args))
		for i, a := range in.Args {
			elems[i] = *m.readPtr(t, a)
		}
		v := Value{K: KTuple, Elems: elems}
		m.assignVar(t, in.Dst, &v, in)

	case ir.OpTupleGet:
		base := m.readCellChecked(t, in.A, in)
		if base == nil {
			return false
		}
		if base.K == KUnk {
			m.assignVar(t, in.Dst, base, in)
			break
		}
		ix := m.tupleIndex(t, in, base)
		if ix < 0 {
			return false
		}
		m.assignVar(t, in.Dst, &base.Elems[ix], in)

	case ir.OpTupleSet:
		base := m.cellOf(t, in.Dst).Deref()
		if base.K == KUnk {
			break
		}
		if base.K != KTuple && base.K != KRecord {
			m.fail(t, in, "tuple store into non-tuple %s", base)
			return false
		}
		ix := m.tupleIndex(t, in, base)
		if ix < 0 {
			return false
		}
		src := m.readPtr(t, in.A)
		copyValueInto(&base.Elems[ix], src)

	case ir.OpField:
		cycles += m.classDerefCost(t, in.A)
		cell, arr := m.fieldCell(t, in, in.A, in.FieldIx)
		if cell == nil {
			return false
		}
		acc = arr
		cycles += uint64(cell.FlatSize()-1) * m.cost(costs.PerElem)
		m.assignVar(t, in.Dst, cell, in)

	case ir.OpFieldStore:
		cycles += m.classDerefCost(t, in.Dst)
		cell, arr := m.fieldCell(t, in, in.Dst, in.FieldIx)
		if cell == nil {
			return false
		}
		acc = arr
		src := m.readPtr(t, in.A)
		cycles += m.assignInto(cell, src)

	case ir.OpRefField:
		cycles += m.classDerefCost(t, in.A)
		cell, arr := m.refFieldCell(t, in)
		if cell == nil {
			return false
		}
		acc = arr
		m.bindCell(t, in.Dst, MakeRef(cell))

	case ir.OpIndex:
		cell, arr, idx, ok := m.elemCell(t, in, in.A)
		if !ok {
			return false
		}
		acc = arr
		fs := cell.FlatSize()
		cycles += uint64(fs-1) * m.cost(costs.PerElem)
		cycles += m.commCost(t, arr, idx, int64(fs)*8, false)
		if m.skel && !tracksContents(arr) {
			u := unknownOf(cell, true)
			m.assignVar(t, in.Dst, &u, in)
			break
		}
		m.assignVar(t, in.Dst, cell, in)

	case ir.OpIndexStore:
		cell, arr, idx, ok := m.elemCell(t, in, in.Dst)
		if !ok {
			return false
		}
		acc = arr
		src := m.readPtr(t, in.A)
		fs := int64(src.FlatSize())
		cycles += m.assignInto(cell, src)
		cycles += m.commCost(t, arr, idx, fs*8, true)
		if m.skel && idx == nil {
			forget(arr)
		}

	case ir.OpRefElem:
		cell, arr, idx, ok := m.elemCell(t, in, in.A)
		if !ok {
			return false
		}
		acc = arr
		cycles += m.commCost(t, arr, idx, 8, false)
		if m.skel && (idx == nil || !tracksContents(arr)) {
			// No reference to an element the skeleton cannot place or
			// does not track: writes through it must not look known.
			if idx == nil {
				forget(arr)
			}
			m.bindCell(t, in.Dst, unknownOf(cell, idx != nil))
			break
		}
		m.bindCell(t, in.Dst, MakeRef(cell))

	case ir.OpSlice:
		base := m.readCellChecked(t, in.A, in)
		if base == nil || base.K != KArray && base.K != KUnk || base.Arr() == nil {
			m.fail(t, in, "slicing a non-array")
			return false
		}
		idx := m.readVal(t, in.B)
		view, err := sliceArray(base.Arr(), idx)
		if err != "" {
			if idx.K == KUnk {
				m.fail(t, in, "data-dependent slice bounds at %v", in.Pos)
				return false
			}
			m.fail(t, in, "%s", err)
			return false
		}
		acc = base.Arr().Owner()
		m.bindCell(t, in.Dst, Value{K: base.K, p: view})

	case ir.OpMakeRange:
		a, b := m.readPtr(t, in.A), m.readPtr(t, in.B)
		if a.K == KUnk || b.K == KUnk || len(in.Args) > 0 && m.readPtr(t, in.Args[0]).K == KUnk {
			m.fail(t, in, "data-dependent range bound at %v", in.Pos)
			return false
		}
		lo := a.AsInt()
		hiOrN := b.AsInt()
		r := RangeVal{Lo: lo, Hi: hiOrN, Stride: 1}
		if in.Method == "counted" {
			r.Hi = lo + hiOrN - 1
		}
		if len(in.Args) > 0 {
			r.Stride = m.readVal(t, in.Args[0]).AsInt()
			if r.Stride <= 0 {
				m.fail(t, in, "range stride must be positive")
				return false
			}
		}
		rv := RngVal(r)
		m.assignVar(t, in.Dst, &rv, in)

	case ir.OpMakeDomain:
		d := DomainVal{Rank: len(in.Args)}
		for i, a := range in.Args {
			rv := m.readVal(t, a)
			if rv.K == KUnk {
				m.fail(t, in, "data-dependent domain bound at %v", in.Pos)
				return false
			}
			if rv.K != KRange {
				m.fail(t, in, "domain dimension %d is not a range", i+1)
				return false
			}
			d.Dims[i] = rv.Rng()
		}
		dv := DomVal(d)
		m.assignVar(t, in.Dst, &dv, in)

	case ir.OpDomMethod:
		v, ok := m.domMethod(t, in)
		if !ok {
			return false
		}
		m.assignVar(t, in.Dst, &v, in)

	case ir.OpQuery:
		v, ok := m.query(t, in)
		if !ok {
			return false
		}
		m.assignVar(t, in.Dst, &v, in)

	case ir.OpAllocArray:
		dv := m.readVal(t, in.A)
		if dv.K == KUnk {
			m.fail(t, in, "data-dependent domain bound at %v", in.Pos)
			return false
		}
		if dv.K != KDomain {
			m.fail(t, in, "array allocation over non-domain %s", dv)
			return false
		}
		var inner *DomainVal
		if in.B != nil {
			bv := m.readVal(t, in.B)
			if bv.K == KDomain {
				d := bv.Dom()
				inner = &d
			}
		}
		at, _ := in.Dst.Type.(*types.ArrayType)
		var elemT types.Type = types.RealType
		if at != nil {
			elemT = at.Elem
		}
		arr, extra := m.allocArray(t, elemT, dv.Dom(), inner, in.Dst)
		cycles += extra
		m.bindCell(t, in.Dst, ArrVal(arr))

	case ir.OpAllocRec:
		rt, _ := in.Dst.Type.(*types.RecordType)
		if rt == nil {
			m.fail(t, in, "new on non-class type")
			return false
		}
		obj, extra := m.allocInstance(t, rt, in.Dst)
		cycles += extra
		ov := ObjVal(obj)
		m.assignVar(t, in.Dst, &ov, in)

	case ir.OpCall:
		m.charge(t, cycles)
		if !m.noLis {
			m.lis.Exec(cycles, t, in, nil)
		}
		m.doCall(t, in)
		return true // doCall manages Idx

	case ir.OpBuiltin:
		extra, ok := m.doBuiltin(t, in)
		if !ok {
			return false
		}
		cycles += extra
		if in.Method == "sync_end" && t.blockedOn != nil {
			// Blocked waiting for begin-tasks: charge and pause without
			// advancing (re-check on resume is unnecessary: sync_end
			// completes when unblocked).
			m.charge(t, cycles)
			if !m.noLis {
				m.lis.Exec(cycles, t, in, nil)
			}
			act.Idx++
			return false
		}

	case ir.OpSpawn:
		m.charge(t, cycles)
		if !m.noLis {
			m.lis.Exec(cycles, t, in, nil)
		}
		m.doSpawn(t, in)
		if t.blockedOn == nil {
			// Non-blocking (begin) or empty iteration: continue past.
			act.Idx++
			return true
		}
		// Blocked at the join barrier: the IP stays on the spawn
		// instruction (stack walks of the blocked master resolve to the
		// forall statement); taskFinished advances it on resume.
		return false

	case ir.OpJmp:
		m.charge(t, cycles)
		if !m.noLis {
			m.lis.Exec(cycles, t, in, nil)
		}
		act.Block = in.Targets[0]
		act.Idx = 0
		return true

	case ir.OpBr:
		cond := m.readPtr(t, in.A)
		m.charge(t, cycles)
		if !m.noLis {
			m.lis.Exec(cycles, t, in, nil)
		}
		if cond.K != KBool {
			if cond.K == KUnk {
				m.fail(t, in, "data-dependent branch in %s at %v", act.F.Name, in.Pos)
				return false
			}
			m.fail(t, in, "branch on non-bool %s", cond)
			return false
		}
		if cond.B {
			act.Block = in.Targets[0]
		} else {
			act.Block = in.Targets[1]
		}
		act.Idx = 0
		return true

	case ir.OpRet:
		var rv *Value
		if in.A != nil {
			rv = m.readPtr(t, in.A)
		}
		m.charge(t, cycles)
		if !m.noLis {
			m.lis.Exec(cycles, t, in, nil)
		}
		m.popFrame(t, rv)
		return true

	default:
		m.fail(t, in, "unimplemented op %s", in.Op)
		return false
	}

	if m.err != nil {
		return false
	}
	m.charge(t, cycles)
	if !m.noLis {
		m.lis.Exec(cycles, t, in, acc)
	}
	if advance {
		act.Idx++
	}
	return true
}

// ------------------------------------------------------------- operands

func litValue(l *ir.Lit) Value {
	switch l.T.Kind() {
	case types.Int:
		return IntVal(l.I)
	case types.Real:
		return RealVal(l.F)
	case types.Bool:
		return BoolVal(l.B)
	case types.String:
		// The IR literal is immutable while the program runs, so the
		// value can name its text instead of boxing a copy per run.
		return Value{K: KString, p: &l.S}
	}
	return Value{}
}

// cellOf returns the raw storage cell of v in t's context.
func (m *VM) cellOf(t *Task, v *ir.Var) *Value {
	if v.IsGlobal {
		return &m.globals[v.Slot]
	}
	act := t.Top()
	return &act.Slots[v.Slot]
}

// readVal reads v's value through references.
func (m *VM) readVal(t *Task, v *ir.Var) Value {
	if v == m.hereVar {
		return Value{K: KLocale, I: int64(t.Locale)}
	}
	return *m.cellOf(t, v).Deref()
}

// readPtr returns a pointer to v's dereferenced storage without copying
// the Value. Callers must treat the result as read-only and consume it
// before executing another instruction (`here` resolves to a scratch cell
// that the next readPtr of `here` overwrites).
func (m *VM) readPtr(t *Task, v *ir.Var) *Value {
	if v == m.hereVar {
		m.hereTmp = Value{K: KLocale, I: int64(t.Locale)}
		return &m.hereTmp
	}
	return m.cellOf(t, v).Deref()
}

// readCellChecked reads v's dereferenced cell, failing on nil frames.
func (m *VM) readCellChecked(t *Task, v *ir.Var, in *ir.Instr) *Value {
	return m.cellOf(t, v).Deref()
}

// bindCell replaces v's cell outright (alias binding, const, alloc).
func (m *VM) bindCell(t *Task, v *ir.Var, val Value) {
	if v == nil {
		return
	}
	*m.cellOf(t, v) = val
}

// MakeRef wraps a cell as a reference, collapsing ref-to-ref.
func MakeRef(cell *Value) Value {
	if cell.K == KRef {
		return *cell
	}
	return Value{K: KRef, p: cell}
}

// assignVar assigns through refs with array-aware semantics; returns
// extra cycles for bulk copies. src is a pointer to avoid copying the
// Value through the call (see copyValueInto for the aliasing argument).
func (m *VM) assignVar(t *Task, v *ir.Var, src *Value, in *ir.Instr) uint64 {
	if v == nil {
		return 0
	}
	cell := m.cellOf(t, v)
	if cell.K == KRef {
		cell = cell.Deref()
	}
	return m.assignInto(cell, src)
}

// assignVarV is assignVar for call sites with non-addressable sources
// (builtin results); the extra copy is fine off the hot path.
func (m *VM) assignVarV(t *Task, v *ir.Var, src Value, in *ir.Instr) uint64 {
	return m.assignVar(t, v, &src, in)
}

// assignInto implements MiniChapel assignment semantics into a cell:
// arrays assign elementwise (views write through to their parents),
// scalars broadcast over arrays and tuples, everything else deep-copies.
func (m *VM) assignInto(cell *Value, src *Value) uint64 {
	src = src.Deref()
	if (cell.K == KArray || cell.K == KUnk) && cell.Arr() != nil {
		dst := cell.Arr()
		switch {
		case src.K == KArray, src.K == KUnk && src.Arr() != nil:
			return m.copyArray(dst, src.Arr())
		default:
			// Broadcast scalar.
			n := dst.Dom.Size()
			idx := make([]int64, dst.Dom.Rank)
			for p := int64(0); p < n; p++ {
				dst.Dom.Unlinear(p, idx)
				if c := dst.Cell(idx); c != nil {
					copyValueInto(c, src)
				}
			}
			return uint64(n) * m.cost(costs.PerElem)
		}
	}
	if cell.K == KNil && (src.K == KArray || src.K == KUnk) && src.Arr() != nil {
		// Fresh array binding from an initializer: clone (an unknown
		// array reference stays unknown).
		clone, extra := m.cloneArray(src.Arr())
		*cell = Value{K: src.K, p: clone}
		return extra
	}
	if (cell.K == KTuple || cell.K == KRecord) && src.K != cell.K {
		// Scalar broadcast over tuple.
		for i := range cell.Elems {
			copyValueInto(&cell.Elems[i], src)
		}
		return uint64(len(cell.Elems)) * m.cost(costs.PerElem)
	}
	n := src.FlatSize()
	copyValueInto(cell, src)
	if n > 1 {
		return uint64(n-1) * m.cost(costs.PerElem)
	}
	return 0
}

// copyArray copies src's visible elements into dst's visible elements.
func (m *VM) copyArray(dst, src *ArrayVal) uint64 {
	n := dst.Dom.Size()
	if src.Dom.Size() != n {
		// Size-mismatched array assignment: copy the overlap.
		if src.Dom.Size() < n {
			n = src.Dom.Size()
		}
	}
	di := make([]int64, dst.Dom.Rank)
	si := make([]int64, src.Dom.Rank)
	for p := int64(0); p < n; p++ {
		dst.Dom.Unlinear(p, di)
		src.Dom.Unlinear(p, si)
		dc, sc := dst.Cell(di), src.Cell(si)
		if dc != nil && sc != nil {
			*dc = sc.Copy()
		}
	}
	return uint64(n) * m.cost(costs.PerElem)
}

// cloneArray duplicates an array (value-semantics initialization).
func (m *VM) cloneArray(src *ArrayVal) (*ArrayVal, uint64) {
	out := &ArrayVal{
		Dom: src.Dom, Layout: src.Dom, ElemT: src.ElemT,
		Data: make([]Value, src.Dom.Size()), LocaleID: src.LocaleID,
	}
	m.registerAlloc(out, nil)
	si := make([]int64, src.Dom.Rank)
	for p := int64(0); p < src.Dom.Size(); p++ {
		src.Dom.Unlinear(p, si)
		if c := src.Cell(si); c != nil {
			out.Data[p] = c.Copy()
		}
	}
	return out, m.cost(costs.AllocBase) + uint64(len(out.Data))*m.cost(costs.PerElem)
}

// classDerefCost charges the heap pointer chase when a field access goes
// through a class handle (nested-structure access, paper §V.B).
func (m *VM) classDerefCost(t *Task, base *ir.Var) uint64 {
	if base == nil {
		return 0
	}
	if m.cellOf(t, base).Deref().K == KClass {
		return m.cost(costs.ClassDeref)
	}
	return 0
}

// tupleIndex resolves a 1-based tuple index from in.B or in.FieldIx.
func (m *VM) tupleIndex(t *Task, in *ir.Instr, base *Value) int {
	var ix int64
	if in.FieldIx >= 0 {
		ix = int64(in.FieldIx)
	} else {
		iv := m.readPtr(t, in.B)
		if iv.K == KUnk {
			m.fail(t, in, "data-dependent tuple index at %v", in.Pos)
			return -1
		}
		ix = iv.AsInt()
	}
	if base.K == KTuple {
		ix-- // Chapel tuples are 1-based
	}
	if ix < 0 || int(ix) >= len(base.Elems) {
		m.fail(t, in, "tuple index %d out of bounds (size %d)", ix+1, len(base.Elems))
		return -1
	}
	return int(ix)
}

// fieldCell resolves base.FieldIx to a storage cell. Returns the owning
// array for address attribution when the base is an element ref.
func (m *VM) fieldCell(t *Task, in *ir.Instr, baseVar *ir.Var, fieldIx int) (*Value, *ArrayVal) {
	base := m.cellOf(t, baseVar).Deref()
	switch base.K {
	case KRecord, KTuple:
		if fieldIx < 0 || fieldIx >= len(base.Elems) {
			m.fail(t, in, "field index %d out of range", fieldIx)
			return nil, nil
		}
		return &base.Elems[fieldIx], nil
	case KClass:
		if base.Obj() == nil {
			m.fail(t, in, "field access on nil class instance")
			return nil, nil
		}
		if fieldIx < 0 || fieldIx >= len(base.Obj().Fields) {
			m.fail(t, in, "field index %d out of range", fieldIx)
			return nil, nil
		}
		return &base.Obj().Fields[fieldIx], nil
	}
	m.fail(t, in, "field access on %s", base)
	return nil, nil
}

// refFieldCell resolves OpRefField (static or dynamic index).
func (m *VM) refFieldCell(t *Task, in *ir.Instr) (*Value, *ArrayVal) {
	base := m.cellOf(t, in.A).Deref()
	switch base.K {
	case KTuple, KRecord:
		ix := m.tupleIndex(t, in, base)
		if ix < 0 {
			return nil, nil
		}
		return &base.Elems[ix], nil
	case KClass:
		if base.Obj() == nil {
			m.fail(t, in, "field access on nil class instance")
			return nil, nil
		}
		ix := in.FieldIx
		if ix < 0 {
			ix = int(m.readVal(t, in.B).AsInt())
		}
		if ix < 0 || ix >= len(base.Obj().Fields) {
			m.fail(t, in, "field index out of range")
			return nil, nil
		}
		return &base.Obj().Fields[ix], nil
	}
	m.fail(t, in, "ref-field on %s", base)
	return nil, nil
}

// elemCell resolves an array element access to its storage cell,
// returning the owning allocation and the resolved index.
func (m *VM) elemCell(t *Task, in *ir.Instr, baseVar *ir.Var) (*Value, *ArrayVal, []int64, bool) {
	base := m.cellOf(t, baseVar).Deref()
	// An unknown array reference (skeleton mode) still reaches its
	// allocation.
	if base.K != KArray && base.K != KUnk || base.Arr() == nil {
		m.fail(t, in, "indexing non-array value %s (var %s)", base, baseVar.Name)
		return nil, nil, nil, false
	}
	arr := base.Arr()
	// Resolved indices live in a VM scratch buffer: element accesses
	// dominate hot loops and the indices never outlive the instruction.
	idx := m.idxScratch[:0]
	unk := false
	if len(in.Args) == 1 {
		iv := m.readVal(t, in.Args[0])
		if iv.K == KTuple {
			for i := range iv.Elems {
				if iv.Elems[i].K == KUnk {
					unk = true
					continue
				}
				idx = append(idx, iv.Elems[i].AsInt())
			}
		} else if iv.K == KUnk {
			unk = true
		} else {
			idx = append(idx, iv.AsInt())
		}
	} else {
		for _, a := range in.Args {
			iv := m.readPtr(t, a)
			if iv.K == KUnk {
				unk = true
				continue
			}
			idx = append(idx, iv.AsInt())
		}
	}
	if unk {
		return m.unknownElem(t, in, arr)
	}
	if len(idx) != arr.Dom.Rank {
		m.fail(t, in, "rank-%d array indexed with %d subscripts", arr.Dom.Rank, len(idx))
		return nil, nil, nil, false
	}
	if !arr.Dom.Contains(idx) {
		m.fail(t, in, "index %v out of bounds %s of array %s", idx, arr.Dom, baseVar.Name)
		return nil, nil, nil, false
	}
	cell := arr.Cell(idx)
	if cell == nil {
		m.fail(t, in, "index %v outside array layout %s", idx, arr.Layout)
		return nil, nil, nil, false
	}
	return cell, arr.Owner(), idx, true
}

// sliceArray builds a view over base restricted by a domain or range.
func sliceArray(base *ArrayVal, idx Value) (*ArrayVal, string) {
	var d DomainVal
	switch idx.K {
	case KDomain:
		d = idx.Dom()
	case KRange:
		d = DomainVal{Rank: 1, Dims: [3]RangeVal{idx.Rng()}}
	default:
		return nil, "slice index must be a domain or range"
	}
	if d.Rank != base.Dom.Rank {
		return nil, "slice rank mismatch"
	}
	owner := base.Owner()
	return &ArrayVal{
		Dom:      d,
		Layout:   base.Layout,
		Data:     base.Data,
		ElemT:    base.ElemT,
		View:     owner,
		Addr:     owner.Addr,
		OwnerVar: owner.OwnerVar,
		LocaleID: owner.LocaleID,
	}, ""
}

// commCost models remote access for multi-locale runs and reports the
// transfer to the monitor (communication blame, paper §VI). For
// Block-distributed arrays the element's home locale decides locality.
// With Config.CommAggregate, Block-distributed accesses route through the
// modeled communication runtime (internal/comm) instead of paying one
// message per element.
func (m *VM) commCost(t *Task, arr *ArrayVal, idx []int64, bytes int64, write bool) uint64 {
	if arr == nil {
		return 0
	}
	home := arr.LocaleID
	if arr.DistBlock && idx != nil {
		home = arr.ElemHome(idx)
	}
	if m.comm != nil && arr.DistBlock && arr.NumLoc > 1 && idx != nil {
		return m.commAccess(t, arr, idx, bytes, home, write)
	}
	if home == t.Locale {
		return 0
	}
	m.noteOwnerRemote(t)
	extraLat := m.fault.Send(home, t.Locale).ExtraLat
	return m.send(bytes, home, t.Locale, arr.OwnerVar, m.currentInstr(t), extraLat)
}

// send charges one data message: CommLatency for each of the 1+extraLat
// attempts plus CommPerByte per byte. It counts the message in Stats,
// reports it with its cycles to the listener and returns the cycles.
// Every data message of a run, direct or decided by the aggregation
// runtime, goes through here.
func (m *VM) send(bytes int64, from, to int, owner *ir.Var, in *ir.Instr, extraLat int64) uint64 {
	cycles := m.cost(costs.CommLatency*uint64(1+extraLat) + uint64(bytes)*costs.CommPerByte)
	m.Stats.CommMessages++
	m.Stats.CommBytes += bytes
	m.lis.Comm(cycles, bytes, from, to, owner, in)
	return cycles
}

// sendAll charges the messages the aggregation runtime returned, in its
// send order, and returns their cycles. A message without an owning
// variable is attributed to owner.
func (m *VM) sendAll(msgs []comm.Event, owner *ir.Var, in *ir.Instr) uint64 {
	var cycles uint64
	for _, ev := range msgs {
		o := ev.Var
		if o == nil {
			o = owner
		}
		cycles += m.send(ev.Bytes, ev.From, ev.To, o, in, ev.ExtraLat)
	}
	return cycles
}

// noteOwnerRemote records a scheduling violation: an element access at a
// site the static plan proved owner-computes (SiteOwner) that still
// targeted a remote locale. Under owner-aligned forall scheduling this
// counter stays 0; the CI smoke and goldens pin that.
func (m *VM) noteOwnerRemote(t *Task) {
	plan := m.Cfg.CommPlan
	if plan == nil {
		return
	}
	if in := m.currentInstr(t); in != nil && plan.Sites[in.Addr].Class == comm.SiteOwner {
		m.Stats.OwnerSiteRemote++
	}
}

// currentInstr returns the instruction t is executing, or nil.
func (m *VM) currentInstr(t *Task) *ir.Instr {
	if act := t.Top(); act != nil && act.Block != nil && act.Idx < len(act.Block.Instrs) {
		return act.Block.Instrs[act.Idx]
	}
	return nil
}

// commAccess delegates one Block-distributed element access to the
// aggregation runtime and charges the messages it decides on.
func (m *VM) commAccess(t *Task, arr *ArrayVal, idx []int64, bytes int64, home int, write bool) uint64 {
	elem := arr.Layout.Linear(idx)
	in := m.currentInstr(t)
	if home == t.Locale {
		// Local access: writes must still invalidate the other locales'
		// cached copies of this element.
		if write {
			m.comm.LocalWrite(arr.Addr, elem, t.Locale)
		}
		return 0
	}
	m.noteOwnerRemote(t)
	a := comm.Access{
		Arr: arr.Addr, Var: arr.OwnerVar, Elem: elem, Bytes: bytes,
		Home: home, Loc: t.Locale, Task: t.ID, Write: write,
		LayoutLen: arr.Layout.Size(),
	}
	if in != nil {
		a.Site = in.Addr
	}
	if it := t.iter; it != nil && it.space.Rank == 1 && arr.Layout.Rank == 1 {
		// The task is driving a rank-1 forall chunk: expose the sweep
		// window in layout-linear element space for halo prefetching.
		d := it.space.Dims[0]
		st := d.Stride
		if st <= 0 {
			st = 1
		}
		base := arr.Layout.Dims[0].Lo
		a.InSweep = true
		a.SweepLo = d.Lo + it.start*st - base
		a.SweepHi = d.Lo + (it.end-1)*st - base
	}
	a.Homes = arr
	return m.sendAll(m.comm.Access(a), arr.OwnerVar, in)
}

// ------------------------------------------------------------ arithmetic

// evalBin computes a binary operation with promotion over tuples and
// arrays. Returns extra cycles for elementwise work. Operands are passed
// by pointer (and only read): binary ops run on every hot-loop iteration,
// and a Value is a whole cache line to copy per call.
func (m *VM) evalBin(op token.Kind, a, b *Value) (Value, uint64, bool) {
	a = a.Deref()
	b = b.Deref()
	if a.K == KUnk && a.Arr() != nil || b.K == KUnk && b.Arr() != nil {
		return m.evalUnknownArrayBin(op, a, b)
	}
	// Array promotion.
	if a.K == KArray || b.K == KArray {
		return m.evalArrayBin(op, a, b)
	}
	// Tuple elementwise.
	if a.K == KTuple || b.K == KTuple {
		return m.evalTupleBin(op, a, b)
	}
	if a.K == KUnk || b.K == KUnk {
		return Value{K: KUnk}, 0, true
	}
	if r, handled, ok := arith.Bin(op, scalar(a), scalar(b)); handled {
		return fromScalar(r), 0, ok
	}
	switch op {
	case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
		return compare(op, a, b)
	}
	if a.K == KString && b.K == KString && op == token.PLUS {
		return StrVal(a.Str() + b.Str()), 0, true
	}
	return Value{}, 0, false
}

// binScalarInto is the hot-path form of evalBin for int/real/bool
// operands, writing the result straight into out (the caller guarantees
// out is not an array/tuple/record cell, where assignment broadcasts).
// handled and ok are arith.Bin's. out is only written on success, and
// only after both operands are read, so out may alias a or b.
func binScalarInto(op token.Kind, a, b, out *Value) (handled, ok bool) {
	r, handled, ok := arith.Bin(op, scalar(a), scalar(b))
	if handled && ok {
		*out = fromScalar(r)
	}
	return handled, ok
}

// scalarKinds and valueKinds map between Value kinds and the arith
// operand kinds; every non-scalar Value kind maps to types.Invalid,
// which no arith operator handles.
var (
	scalarKinds = [KUnk + 1]types.Kind{KInt: types.Int, KReal: types.Real, KBool: types.Bool}
	valueKinds  = [types.Atomic + 1]Kind{types.Int: KInt, types.Real: KReal, types.Bool: KBool}
)

// scalar and fromScalar convert by copying fields: the operator hot
// path must not build a types.Type per operand.
func scalar(v *Value) arith.Val {
	return arith.Val{K: scalarKinds[v.K], I: v.I, F: v.F, B: v.B}
}

func fromScalar(r arith.Val) Value {
	return Value{K: valueKinds[r.K], I: r.I, F: r.F, B: r.B}
}

// compare handles the comparisons arith.Bin does not: class and nil
// handles, strings, and mixed-kind pairs, which compare as reals.
func compare(op token.Kind, a, b *Value) (Value, uint64, bool) {
	// Class/nil comparisons.
	if a.K == KClass || b.K == KClass || a.K == KNil || b.K == KNil {
		var ap, bp *Instance
		if a.K == KClass {
			ap = a.Obj()
		}
		if b.K == KClass {
			bp = b.Obj()
		}
		switch op {
		case token.EQ:
			return BoolVal(ap == bp), 0, true
		case token.NEQ:
			return BoolVal(ap != bp), 0, true
		}
		return Value{}, 0, false
	}
	if a.K == KString && b.K == KString {
		switch op {
		case token.EQ:
			return BoolVal(a.Str() == b.Str()), 0, true
		case token.NEQ:
			return BoolVal(a.Str() != b.Str()), 0, true
		}
	}
	r, ok := arith.Compare(op, a.AsReal(), b.AsReal())
	return BoolVal(r), 0, ok
}

func (m *VM) evalTupleBin(op token.Kind, a, b *Value) (Value, uint64, bool) {
	var n int
	if a.K == KTuple {
		n = len(a.Elems)
	} else {
		n = len(b.Elems)
	}
	if a.K == KTuple && b.K == KTuple && len(a.Elems) != len(b.Elems) {
		return Value{}, 0, false
	}
	out := Value{K: KTuple, Elems: make([]Value, n)}
	var extra uint64
	for i := 0; i < n; i++ {
		ea, eb := a, b
		if a.K == KTuple {
			ea = &a.Elems[i]
		}
		if b.K == KTuple {
			eb = &b.Elems[i]
		}
		v, e, ok := m.evalBin(op, ea, eb)
		if !ok {
			return Value{}, 0, false
		}
		out.Elems[i] = v
		extra += e + m.cost(costs.PerElem)
	}
	// Tuple arithmetic constructs a fresh result tuple (Chapel tuple ops
	// are not in-place) — the construction/destruction overhead the CENN
	// rewrite eliminates (paper §V.C).
	extra += m.cost(costs.TupleBase + uint64(n)*costs.TuplePerEl)
	return out, extra, true
}

func (m *VM) evalArrayBin(op token.Kind, a, b *Value) (Value, uint64, bool) {
	var src *ArrayVal
	if a.K == KArray {
		src = a.Arr()
	} else {
		src = b.Arr()
	}
	out := &ArrayVal{Dom: src.Dom, Layout: src.Dom, ElemT: src.ElemT, Data: make([]Value, src.Dom.Size()), LocaleID: src.LocaleID}
	var extra uint64
	ia := make([]int64, src.Dom.Rank)
	for p := int64(0); p < src.Dom.Size(); p++ {
		src.Dom.Unlinear(p, ia)
		ea, eb := a, b
		if a.K == KArray {
			c := a.Arr().Cell(ia)
			if c == nil {
				return Value{}, 0, false
			}
			ea = c
		}
		if b.K == KArray {
			c := b.Arr().Cell(ia)
			if c == nil {
				return Value{}, 0, false
			}
			eb = c
		}
		v, e, ok := m.evalBin(op, ea, eb)
		if !ok {
			return Value{}, 0, false
		}
		out.Data[p] = v
		extra += e + m.cost(costs.PerElem)
	}
	return ArrVal(out), extra, true
}

func evalUn(op token.Kind, a *Value) (Value, bool) {
	a = a.Deref()
	if a.K == KUnk {
		return Value{K: KUnk}, true
	}
	if r, ok := arith.Un(op, scalar(a)); ok {
		return fromScalar(r), true
	}
	if op == token.MINUS && a.K == KTuple {
		out := Value{K: KTuple, Elems: make([]Value, len(a.Elems))}
		for i := range a.Elems {
			v, ok := evalUn(op, &a.Elems[i])
			if !ok {
				return Value{}, false
			}
			out.Elems[i] = v
		}
		return out, true
	}
	return Value{}, false
}

// ---------------------------------------------------------------- memory

// defaultValue builds the zero value of a type (arrays inside records use
// the registered field domains).
func (m *VM) defaultValue(t types.Type) Value {
	switch tt := t.(type) {
	case *types.Basic:
		switch tt.K {
		case types.Int:
			return IntVal(0)
		case types.Real:
			return RealVal(0)
		case types.Bool:
			return BoolVal(false)
		case types.String:
			return StrVal("")
		case types.LocaleK:
			return Value{K: KLocale}
		}
		return Value{}
	case *types.TupleType:
		out := Value{K: KTuple, Elems: make([]Value, tt.Count)}
		for i := range out.Elems {
			out.Elems[i] = m.defaultValue(tt.Elem)
		}
		return out
	case *types.RecordType:
		if tt.IsClass {
			return Value{K: KNil}
		}
		return m.defaultRecord(tt, nil)
	case *types.AtomicType:
		return m.defaultValue(tt.Elem)
	case *types.RangeType:
		return RngVal(RangeVal{Lo: 0, Hi: -1, Stride: 1})
	case *types.DomainType:
		return DomVal(DomainVal{Rank: tt.Rank})
	case *types.ArrayType:
		// Unallocated array slot: filled by OpAllocArray or cloning.
		return Value{}
	}
	return Value{}
}

// defaultRecord builds a record value, allocating array fields over their
// registered global domains.
func (m *VM) defaultRecord(rt *types.RecordType, ownerVar *ir.Var) Value {
	out := Value{K: KRecord, Elems: make([]Value, len(rt.Fields))}
	for i, f := range rt.Fields {
		if at, ok := f.Type.(*types.ArrayType); ok {
			if dv, ok2 := m.fieldDomainValue(rt, i); ok2 {
				arr, _ := m.allocArray(nil, at.Elem, dv, nil, ownerVar)
				out.Elems[i] = ArrVal(arr)
				continue
			}
		}
		out.Elems[i] = m.defaultValue(f.Type)
	}
	return out
}

// fieldDomainValue reads the registered domain global for record field i.
func (m *VM) fieldDomainValue(rt *types.RecordType, i int) (DomainVal, bool) {
	fd := m.Prog.FieldDomains[rt]
	if fd == nil {
		return DomainVal{}, false
	}
	gv, ok := fd[i]
	if !ok {
		return DomainVal{}, false
	}
	v := m.globals[gv.Slot]
	if v.K != KDomain {
		return DomainVal{}, false
	}
	return v.Dom(), true
}

// allocArray creates an array over dom; nested element arrays are
// allocated over inner. Returns the descriptor and extra cycles.
func (m *VM) allocArray(t *Task, elemT types.Type, dom DomainVal, inner *DomainVal, ownerVar *ir.Var) (*ArrayVal, uint64) {
	n := dom.Size()
	arr := &ArrayVal{Dom: dom, Layout: dom, ElemT: elemT, Data: make([]Value, n)}
	if t != nil {
		arr.LocaleID = t.Locale
	}
	if dom.Dist {
		arr.DistBlock = true
		arr.NumLoc = m.Cfg.NumLocales
	}
	// Initialization cost scales with the element footprint (an
	// [Elems] 8*real costs 8x an [Elems] real — the VG optimization's
	// savings, paper §V.C).
	elemWords := uint64(1)
	if elemT != nil && elemT.Size() > 8 {
		elemWords = uint64(elemT.Size() / 8)
	}
	extra := m.cost(costs.AllocBase) + uint64(n)*elemWords*m.cost(costs.AllocPerEl)
	switch et := elemT.(type) {
	case *types.ArrayType:
		for i := range arr.Data {
			var d DomainVal
			if inner != nil {
				d = *inner
			}
			sub, e := m.allocArray(t, et.Elem, d, nil, ownerVar)
			arr.Data[i] = ArrVal(sub)
			extra += e
		}
	case *types.RecordType:
		if et.IsClass {
			for i := range arr.Data {
				arr.Data[i] = Value{K: KNil}
			}
		} else {
			for i := range arr.Data {
				arr.Data[i] = m.defaultRecord(et, ownerVar)
			}
		}
	default:
		dv := m.defaultValue(elemT)
		for i := range arr.Data {
			arr.Data[i] = dv.Copy()
		}
	}
	m.registerAlloc(arr, ownerVar)
	return arr, extra
}

// registerAlloc assigns an address range and reports the allocation.
func (m *VM) registerAlloc(arr *ArrayVal, ownerVar *ir.Var) {
	elemSize := int64(8)
	if arr.ElemT != nil {
		elemSize = arr.ElemT.Size()
	}
	arr.SizeBytes = arr.Dom.Size() * elemSize
	arr.Addr = m.nextAddr
	m.nextAddr += uint64(arr.SizeBytes) + 64
	arr.OwnerVar = ownerVar
	m.Stats.Allocations++
	m.Stats.AllocBytes += arr.SizeBytes
	m.lis.Alloc(arr.Addr, arr.SizeBytes, ownerVar)
}

// allocInstance creates a class instance.
func (m *VM) allocInstance(t *Task, rt *types.RecordType, ownerVar *ir.Var) (*Instance, uint64) {
	obj := &Instance{Type: rt, Fields: make([]Value, len(rt.Fields))}
	extra := m.cost(costs.ClassAlloc)
	for i, f := range rt.Fields {
		if at, ok := f.Type.(*types.ArrayType); ok {
			if dv, ok2 := m.fieldDomainValue(rt, i); ok2 {
				arr, e := m.allocArray(t, at.Elem, dv, nil, ownerVar)
				obj.Fields[i] = ArrVal(arr)
				extra += e
				continue
			}
		}
		obj.Fields[i] = m.defaultValue(f.Type)
	}
	obj.SizeBytes = rt.InstanceSize()
	obj.Addr = m.nextAddr
	m.nextAddr += uint64(obj.SizeBytes) + 64
	obj.OwnerVar = ownerVar
	if t != nil {
		obj.LocaleID = t.Locale
	}
	m.Stats.Allocations++
	m.Stats.AllocBytes += obj.SizeBytes
	m.lis.Alloc(obj.Addr, obj.SizeBytes, ownerVar)
	return obj, extra
}

// ------------------------------------------------------------ calls/ret

// doCall pushes the callee frame, binding arguments directly into the
// callee's slots (no intermediate args slice; composites are deep-copied,
// scalars moved).
func (m *VM) doCall(t *Task, in *ir.Instr) {
	callee := in.Callee
	act := t.Top()
	na := m.newActivation(callee)
	if len(callee.Blocks) > 0 {
		na.Block = callee.Blocks[0]
	}
	var extra uint64
	for i, p := range callee.Params {
		if i >= len(in.Args) {
			break
		}
		av := in.Args[i]
		if p.IsRef {
			if av == m.hereVar {
				na.Slots[p.Slot] = Value{K: KLocale, I: int64(t.Locale)}
			} else {
				na.Slots[p.Slot] = MakeRef(m.cellOf(t, av))
			}
		} else {
			v := m.readPtr(t, av)
			if n := v.FlatSize(); n > 1 {
				extra += uint64(n-1) * m.cost(costs.PerElem)
			}
			copyValueInto(&na.Slots[p.Slot], v)
		}
	}
	if extra > 0 {
		m.charge(t, extra)
		if !m.noLis {
			m.lis.Exec(extra, t, in, nil)
		}
	}
	m.initLocals(na)
	if in.Dst != nil {
		na.RetDst = m.cellOf(t, in.Dst)
	}
	na.CallSite = in
	act.Idx++ // resume after the call
	t.Frames = append(t.Frames, na)
}

// popFrame leaves the current frame, delivering rv (nil for a bare
// return) to the caller. rv may point into the popped frame's slots:
// the value is deep-copied into RetDst before the frame is recycled.
func (m *VM) popFrame(t *Task, rv *Value) {
	n := len(t.Frames)
	act := t.Frames[n-1]
	t.Frames[n-1] = nil
	t.Frames = t.Frames[:n-1]
	if act.RetDst != nil {
		if rv == nil {
			rv = &Value{}
		}
		m.assignInto(act.RetDst, rv)
	}
	m.freeActivation(act)
	if len(t.Frames) == 0 && t.iter == nil {
		m.taskFinished(t)
	}
}
