package absint

import (
	"strings"

	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/types"
)

// Env is the abstract store of the interval/affine domain: a map from IR
// variables to abstract values. Variables absent from Vars are Top.
// Dead marks a state flowing along a statically-infeasible branch edge;
// dead states are identities of Join, so blocks whose every incoming
// edge is infeasible keep a dead entry state.
type Env struct {
	Vars map[*ir.Var]Val
	Dead bool
}

// NewEnv returns an empty (all-Top) environment.
func NewEnv() *Env { return &Env{Vars: make(map[*ir.Var]Val)} }

// Get returns the abstract value of v (Top when untracked).
func (e *Env) Get(v *ir.Var) Val {
	if v == nil {
		return Top()
	}
	if x, ok := e.Vars[v]; ok {
		return x
	}
	return Top()
}

// Set binds v; binding Top removes the entry.
func (e *Env) Set(v *ir.Var, x Val) {
	if v == nil {
		return
	}
	if x.Kind == VTop {
		delete(e.Vars, v)
		return
	}
	e.Vars[v] = x
}

func (e *Env) clone() *Env {
	out := &Env{Vars: make(map[*ir.Var]Val, len(e.Vars)), Dead: e.Dead}
	for v, x := range e.Vars {
		out.Vars[v] = x
	}
	return out
}

// IntDomain is the interval/affine abstract domain over Env. Seed binds
// parameters and globals at function entry; Pins holds variables frozen
// to a symbolic value — loop induction variables and forall body index
// parameters — which any write re-pins, so `i = i + 1` leaves i as the
// symbol i with its precomputed range instead of diverging through the
// fixpoint. Configs resolves `config const` builtins; NumCores answers
// locale.maxTaskPar queries (0 = unknown).
type IntDomain struct {
	Fn       *ir.Func
	Seed     map[*ir.Var]Val
	Pins     map[*ir.Var]Val
	Configs  map[string]Val
	NumCores int64
	// RebindsParam, when set, reports whether callee may rebind its
	// i-th parameter (directly or transitively through ref passing).
	// nil is conservative: every ref argument is clobbered at calls
	// and every capture at spawns.
	RebindsParam func(callee *ir.Func, i int) bool
}

// mayRebind reports whether the body bd binds may rebind its k-th
// non-index formal.
func (d *IntDomain) mayRebind(bd ir.Binding, k int) bool {
	return d.RebindsParam == nil || d.RebindsParam(bd.Callee, len(bd.Idx)+k)
}

// Entry seeds parameters, globals and pins.
func (d *IntDomain) Entry(f *ir.Func) *Env {
	e := NewEnv()
	for v, x := range d.Seed {
		e.Set(v, x)
	}
	for v, x := range d.Pins {
		e.Set(v, x)
	}
	return e
}

// Copy clones the store.
func (d *IntDomain) Copy(s *Env) *Env { return s.clone() }

// Join merges b into a (a may be mutated and returned).
func (d *IntDomain) Join(a, b *Env) (*Env, bool) { return d.merge(a, b, false) }

// Widen merges with interval extrapolation on unstable bounds.
func (d *IntDomain) Widen(a, b *Env) (*Env, bool) { return d.merge(a, b, true) }

func (d *IntDomain) merge(a, b *Env, widen bool) (*Env, bool) {
	if b == nil || b.Dead {
		return a, false
	}
	if a == nil || a.Dead {
		return b.clone(), true
	}
	changed := false
	for v, av := range a.Vars {
		bv, ok := b.Vars[v]
		if !ok {
			bv = Top()
		}
		var nv Val
		if widen {
			nv = av.widen(bv)
		} else {
			nv = av.Join(bv)
		}
		if !nv.equal(av) {
			changed = true
			a.Set(v, nv)
		}
	}
	return a, changed
}

// Transfer applies one instruction to s in place (the engine hands it an
// owned copy).
func (d *IntDomain) Transfer(s *Env, in *ir.Instr) *Env {
	if s.Dead {
		return s
	}
	set := func(x Val) {
		if in.Dst == nil {
			return
		}
		if pin, ok := d.Pins[in.Dst]; ok {
			s.Set(in.Dst, pin)
			return
		}
		s.Set(in.Dst, x)
	}

	switch in.Op {
	case ir.OpConst:
		set(litVal(in.Lit))

	case ir.OpMove:
		set(s.Get(in.A))

	case ir.OpBin:
		set(d.evalBin(s, in))

	case ir.OpUn:
		a := s.Get(in.A)
		switch in.BinOp {
		case token.MINUS:
			set(NumV(a.AsNum().Neg()))
		case token.NOT:
			switch a.B {
			case BTrue:
				set(BoolV(BFalse))
			case BFalse:
				set(BoolV(BTrue))
			default:
				set(BoolV(BUnknown))
			}
		default:
			set(Top())
		}

	case ir.OpMakeRange:
		lo := s.Get(in.A).AsNum()
		hiOrN := s.Get(in.B).AsNum()
		r := RangeInfo{Lo: lo, Hi: hiOrN, Stride: 1}
		if in.Method == "counted" {
			r.Hi = lo.Add(hiOrN).Sub(ConstNum(1))
		}
		if len(in.Args) > 0 {
			if st, ok := s.Get(in.Args[0]).AsNum().IsConst(); ok && st > 0 {
				r.Stride = st
			} else {
				r.Stride = 0
			}
		}
		set(Val{Kind: VRange, Dims: [3]RangeInfo{r}})

	case ir.OpMakeDomain:
		v := Val{Kind: VDomain, Rank: len(in.Args)}
		ok := len(in.Args) > 0 && len(in.Args) <= 3
		for i, a := range in.Args {
			av := s.Get(a)
			if av.Kind != VRange {
				ok = false
				break
			}
			v.Dims[i] = av.Dims[0]
		}
		if ok {
			set(v)
		} else {
			set(Top())
		}

	case ir.OpDomMethod:
		set(d.evalDomMethod(s, in))

	case ir.OpQuery:
		set(d.evalQuery(s, in))

	case ir.OpAllocArray:
		av := s.Get(in.A)
		if av.Kind == VDomain {
			out := av
			out.Kind = VArray
			set(out)
		} else {
			set(Top())
		}

	case ir.OpBuiltin:
		set(d.evalBuiltin(s, in))

	case ir.OpCall:
		// Intraprocedural: the return value is unknown, and arguments
		// bound to ref parameters may be written by the callee.
		set(Top())
		for _, bd := range in.Bindings() {
			for k, p := range bd.Formals {
				if p.IsRef && d.mayRebind(bd, k) {
					s.Set(bd.Actuals[k], Top())
				}
			}
		}

	case ir.OpSpawn:
		// Task bodies capture outer vars by reference; clobber the
		// captures the body (or anything it calls) may rebind.
		for _, bd := range in.Bindings() {
			for k, a := range bd.Actuals {
				if d.mayRebind(bd, k) {
					s.Set(a, Top())
				}
			}
		}
		// Re-pin any pinned captures (the pin is the summary).
		for _, a := range in.Args {
			if pin, ok := d.Pins[a]; ok {
				s.Set(a, pin)
			}
		}

	case ir.OpIndex:
		if s.Get(in.A).Kind == VLocales && len(in.Args) == 1 {
			set(Val{Kind: VLocale, Num: s.Get(in.Args[0]).AsNum()})
		} else {
			set(Top())
		}

	case ir.OpSlice, ir.OpRefElem, ir.OpRefField, ir.OpField,
		ir.OpTupleGet, ir.OpMakeTuple, ir.OpAllocRec,
		ir.OpZipSetup, ir.OpZipAdvance:
		set(Top())

	case ir.OpIndexStore, ir.OpFieldStore, ir.OpTupleSet,
		ir.OpRet, ir.OpJmp, ir.OpBr, ir.OpYield, ir.OpNop:
		// No scalar binding changes.
	}
	return s
}

func litVal(l *ir.Lit) Val {
	if l == nil || l.T == nil {
		return Top()
	}
	switch l.T.Kind() {
	case types.Int:
		return ConstV(l.I)
	case types.Bool:
		return BoolV(boolOf(l.B))
	}
	return Top()
}

func (d *IntDomain) evalBin(s *Env, in *ir.Instr) Val {
	a, b := s.Get(in.A), s.Get(in.B)
	switch in.BinOp {
	case token.AND, token.OR:
		ab, bb := a.B, b.B
		if a.Kind != VBool {
			ab = BUnknown
		}
		if b.Kind != VBool {
			bb = BUnknown
		}
		if in.BinOp == token.AND {
			if ab == BFalse || bb == BFalse {
				return BoolV(BFalse)
			}
			if ab == BTrue && bb == BTrue {
				return BoolV(BTrue)
			}
		} else {
			if ab == BTrue || bb == BTrue {
				return BoolV(BTrue)
			}
			if ab == BFalse && bb == BFalse {
				return BoolV(BFalse)
			}
		}
		return BoolV(BUnknown)
	case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
		if numeric(a) && numeric(b) {
			return BoolV(Compare(in.BinOp, a.AsNum(), b.AsNum()))
		}
		return BoolV(BUnknown)
	}
	if !numeric(a) || !numeric(b) {
		return Top()
	}
	// Real-typed arithmetic has no integer abstraction.
	if realTyped(in.Dst) {
		return Top()
	}
	an, bn := a.AsNum(), b.AsNum()
	switch in.BinOp {
	case token.PLUS:
		return NumV(an.Add(bn))
	case token.MINUS:
		return NumV(an.Sub(bn))
	case token.STAR:
		return NumV(an.Mul(bn))
	case token.SLASH:
		return NumV(an.Div(bn))
	case token.PERCENT:
		return NumV(an.Mod(bn))
	}
	return Top()
}

func numeric(v Val) bool { return v.Kind == VNum || v.Kind == VTop || v.Kind == VBool }

func realTyped(v *ir.Var) bool {
	if v == nil || v.Type == nil {
		return false
	}
	return v.Type.Kind() == types.Real || v.Type.Kind() == types.String
}

// Compare decides a comparison over the affine difference a-b, so
// correlated symbols cancel ((i+1) > i is BTrue, not BUnknown).
func Compare(op token.Kind, a, b NumVal) Bool {
	diff := a.Sub(b).Rng
	if diff.IsEmpty() {
		return BBot
	}
	decide := func(t, f bool) Bool {
		if t {
			return BTrue
		}
		if f {
			return BFalse
		}
		return BUnknown
	}
	switch op {
	case token.LT:
		return decide(diff.Hi < 0, diff.Lo >= 0)
	case token.LE:
		return decide(diff.Hi <= 0, diff.Lo > 0)
	case token.GT:
		return decide(diff.Lo > 0, diff.Hi <= 0)
	case token.GE:
		return decide(diff.Lo >= 0, diff.Hi < 0)
	case token.EQ:
		return decide(diff.Lo == 0 && diff.Hi == 0, !diff.Contains(0))
	case token.NEQ:
		return decide(!diff.Contains(0), diff.Lo == 0 && diff.Hi == 0)
	}
	return BUnknown
}

func (d *IntDomain) evalDomMethod(s *Env, in *ir.Instr) Val {
	v := s.Get(in.A)
	argNum := func(i int) NumVal {
		if i < len(in.Args) {
			return s.Get(in.Args[i]).AsNum()
		}
		return ConstNum(0)
	}
	switch in.Method {
	case "expand":
		if v.Kind == VDomain {
			k := argNum(0)
			out := v
			for i := 0; i < v.Rank; i++ {
				out.Dims[i].Lo = v.Dims[i].Lo.Sub(k)
				out.Dims[i].Hi = v.Dims[i].Hi.Add(k)
			}
			return out
		}
	case "translate":
		if v.Kind == VDomain {
			k := argNum(0)
			out := v
			for i := 0; i < v.Rank; i++ {
				out.Dims[i].Lo = v.Dims[i].Lo.Add(k)
				out.Dims[i].Hi = v.Dims[i].Hi.Add(k)
			}
			return out
		}
	case "interior", "exterior":
		if v.Kind == VDomain {
			// Mirrors the VM's simplification: shrink by |k| on the high side.
			k := argNum(0)
			if k.Rng.Hi < 0 {
				k = k.Neg()
			} else if k.Rng.Lo < 0 {
				k = NumVal{Rng: MakeInterval(0, maxAbs(k.Rng))}
			}
			out := v
			for i := 0; i < v.Rank; i++ {
				out.Dims[i].Hi = v.Dims[i].Hi.Sub(k)
			}
			return out
		}
	case "dim":
		if dims, ok := asDims(v); ok {
			if i, c := argNum(0).IsConst(); c && i >= 1 && int(i) <= len(dims) {
				return Val{Kind: VRange, Dims: [3]RangeInfo{dims[i-1]}}
			}
		}
	case "size":
		if _, ok := asDims(v); ok {
			return NumV(v.TripCount())
		}
	case "reindex":
		if v.Kind == VArray {
			return v
		}
	}
	return Top()
}

func maxAbs(i Interval) int64 {
	a, b := i.Lo, i.Hi
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

func asDims(v Val) ([]RangeInfo, bool) { return v.Space() }

func (d *IntDomain) evalQuery(s *Env, in *ir.Instr) Val {
	v := s.Get(in.A)
	switch in.Method {
	case "size", "length", "numIndices", "numElements":
		if _, ok := v.Space(); ok {
			return NumV(v.TripCount())
		}
	case "low", "first", "ziplow":
		if dims, ok := v.Space(); ok && (len(dims) == 1 || in.Method == "ziplow") {
			return NumV(dims[0].Lo)
		}
	case "high", "last":
		if dims, ok := v.Space(); ok && len(dims) == 1 {
			return NumV(dims[0].Hi)
		}
	case "domain":
		if v.Kind == VArray {
			out := v
			out.Kind = VDomain
			return out
		}
	case "dimlow":
		if dims, ok := v.Space(); ok && in.FieldIx < len(dims) {
			return NumV(dims[in.FieldIx].Lo)
		}
	case "dimhigh":
		if dims, ok := v.Space(); ok && in.FieldIx < len(dims) {
			return NumV(dims[in.FieldIx].Hi)
		}
	case "id":
		if v.Kind == VLocale {
			return NumV(v.Num)
		}
	case "maxTaskPar", "numCores":
		if d.NumCores > 0 {
			return ConstV(d.NumCores)
		}
	}
	return Top()
}

func (d *IntDomain) evalBuiltin(s *Env, in *ir.Instr) Val {
	name := in.Method
	if cfg, ok := strings.CutPrefix(name, "config:"); ok {
		if v, ok := d.Configs[cfg]; ok {
			return v
		}
		// Fall back to the compiled default.
		if len(in.Args) > 0 {
			return s.Get(in.Args[0])
		}
		return Top()
	}
	argNum := func(i int) NumVal {
		if i < len(in.Args) {
			return s.Get(in.Args[i]).AsNum()
		}
		return TopNum()
	}
	switch name {
	case "distribute:block":
		v := s.Get(in.A)
		if v.Kind == VDomain {
			v.Dist = true
			return v
		}
	case "abs":
		if realTyped(in.Dst) {
			return Top()
		}
		a := argNum(0).Rng
		if a.IsEmpty() {
			return Top()
		}
		lo, hi := a.Lo, a.Hi
		if lo < 0 && hi < 0 {
			return NumV(NumVal{Rng: MakeInterval(-hi, -lo)})
		}
		if lo < 0 {
			return NumV(NumVal{Rng: MakeInterval(0, maxAbs(a))})
		}
		return NumV(NumVal{Rng: a})
	case "min", "max":
		if realTyped(in.Dst) || len(in.Args) == 0 {
			return Top()
		}
		out := argNum(0)
		for i := 1; i < len(in.Args); i++ {
			b := argNum(i)
			if name == "min" {
				out = NumVal{Rng: MakeInterval(minI(out.Rng.Lo, b.Rng.Lo), minI(out.Rng.Hi, b.Rng.Hi))}
			} else {
				out = NumVal{Rng: MakeInterval(maxI(out.Rng.Lo, b.Rng.Lo), maxI(out.Rng.Hi, b.Rng.Hi))}
			}
		}
		return NumV(out)
	case "sgn":
		return NumV(NumVal{Rng: MakeInterval(-1, 1)})
	}
	return Top()
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Refine sharpens s along a branch edge. When the branch condition is a
// comparison defined in the same block, the operand intervals are met
// with the implied bound; a condition statically decided the other way
// marks the state dead (the edge is infeasible).
// pinnedCmp reports whether def is a comparison reading a pinned
// variable — its outcome varies per iteration even when the abstract
// evaluation over the pinned range is definite.
func (d *IntDomain) pinnedCmp(def *ir.Instr) bool {
	if def == nil || def.Op != ir.OpBin {
		return false
	}
	if _, ok := d.Pins[def.A]; ok {
		return true
	}
	if _, ok := d.Pins[def.B]; ok {
		return true
	}
	return false
}

func (d *IntDomain) Refine(s *Env, in *ir.Instr, taken bool) *Env {
	if s.Dead || in.A == nil {
		return s
	}
	def := in.Block.DefBefore(in.A, in)
	cv := s.Get(in.A)
	if cv.Kind == VBool && !d.pinnedCmp(def) {
		if (cv.B == BTrue && !taken) || (cv.B == BFalse && taken) {
			s.Dead = true
			return s
		}
	}
	if def == nil || def.Op != ir.OpBin || d.pinnedCmp(def) {
		// A comparison on a pinned variable holds on some iterations and
		// fails on others; neither edge constrains anything.
		return s
	}
	op := def.BinOp
	if !taken {
		op = negateCmp(op)
	}
	switch op {
	case token.LT, token.LE, token.GT, token.GE, token.EQ, token.NEQ:
	default:
		return s
	}
	a, b := s.Get(def.A), s.Get(def.B)
	if !numeric(a) || !numeric(b) || realTyped(def.A) || realTyped(def.B) {
		return s
	}
	an, bn := a.AsNum(), b.AsNum()
	refineVar := func(v *ir.Var, cur NumVal, bound Interval) {
		if v == nil {
			return
		}
		if _, pinned := d.Pins[v]; pinned {
			// A pinned variable summarizes every iteration of its loop at
			// once; a branch edge contradicting the pinned range (e.g. the
			// exit test of the pinned loop) is still feasible for the
			// final iteration, so neither narrow the pin nor kill the
			// state.
			return
		}
		met := cur.Rng.Meet(bound)
		if met.IsEmpty() {
			s.Dead = true
			return
		}
		if met == cur.Rng {
			return
		}
		nv := NumVal{Rng: met, Aff: cur.Aff}
		s.Set(v, NumV(nv))
	}
	switch op {
	case token.LT:
		refineVar(def.A, an, MakeInterval(-inf, satAdd(bn.Rng.Hi, -1)))
		refineVar(def.B, bn, MakeInterval(satAdd(an.Rng.Lo, 1), inf))
	case token.LE:
		refineVar(def.A, an, MakeInterval(-inf, bn.Rng.Hi))
		refineVar(def.B, bn, MakeInterval(an.Rng.Lo, inf))
	case token.GT:
		refineVar(def.A, an, MakeInterval(satAdd(bn.Rng.Lo, 1), inf))
		refineVar(def.B, bn, MakeInterval(-inf, satAdd(an.Rng.Hi, -1)))
	case token.GE:
		refineVar(def.A, an, MakeInterval(bn.Rng.Lo, inf))
		refineVar(def.B, bn, MakeInterval(-inf, an.Rng.Hi))
	case token.EQ:
		refineVar(def.A, an, bn.Rng)
		refineVar(def.B, bn, an.Rng)
	case token.NEQ:
		// Only point-exclusion at the ends is expressible.
		if bn.Rng.IsConst() {
			r := an.Rng
			if r.Lo == bn.Rng.Lo {
				r.Lo++
			}
			if r.Hi == bn.Rng.Lo {
				r.Hi--
			}
			refineVar(def.A, an, r)
		}
	}
	return s
}

func negateCmp(op token.Kind) token.Kind {
	switch op {
	case token.LT:
		return token.GE
	case token.LE:
		return token.GT
	case token.GT:
		return token.LE
	case token.GE:
		return token.LT
	case token.EQ:
		return token.NEQ
	case token.NEQ:
		return token.EQ
	}
	return op
}
