package absint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Affine is a symbolic linear form  Const + Σ Terms[v]·v  over pinned
// symbolic variables (loop induction variables, body index parameters,
// config constants). Keeping index expressions affine lets correlated
// terms cancel exactly — (i+1) - (i-1) is the constant 2, not a width-2
// interval — which is what makes trip counts and halo offsets precise.
type Affine struct {
	Const int64
	Terms map[*ir.Var]int64
}

// ConstAffine builds a constant form.
func ConstAffine(c int64) *Affine { return &Affine{Const: c} }

// VarAffine builds the form 1·v.
func VarAffine(v *ir.Var) *Affine {
	return &Affine{Terms: map[*ir.Var]int64{v: 1}}
}

// IsConst reports a form with no symbolic terms.
func (a *Affine) IsConst() bool { return a != nil && len(a.Terms) == 0 }

func (a *Affine) clone() *Affine {
	out := &Affine{Const: a.Const}
	if len(a.Terms) > 0 {
		out.Terms = make(map[*ir.Var]int64, len(a.Terms))
		for v, c := range a.Terms {
			out.Terms[v] = c
		}
	}
	return out
}

func (a *Affine) add(b *Affine, sign int64) *Affine {
	out := a.clone()
	out.Const = satAdd(out.Const, satMul(sign, b.Const))
	for v, c := range b.Terms {
		if out.Terms == nil {
			out.Terms = make(map[*ir.Var]int64)
		}
		n := satAdd(out.Terms[v], satMul(sign, c))
		if n == 0 {
			delete(out.Terms, v)
		} else {
			out.Terms[v] = n
		}
	}
	return out
}

func (a *Affine) scale(k int64) *Affine {
	if k == 0 {
		return ConstAffine(0)
	}
	out := &Affine{Const: satMul(a.Const, k)}
	if len(a.Terms) > 0 {
		out.Terms = make(map[*ir.Var]int64, len(a.Terms))
		for v, c := range a.Terms {
			out.Terms[v] = satMul(c, k)
		}
	}
	return out
}

// divExact divides by k when every coefficient is divisible; ok=false
// otherwise (the caller falls back to interval division).
func (a *Affine) divExact(k int64) (*Affine, bool) {
	if k == 0 {
		return nil, false
	}
	if a.Const%k != 0 {
		return nil, false
	}
	out := &Affine{Const: a.Const / k}
	if len(a.Terms) > 0 {
		out.Terms = make(map[*ir.Var]int64, len(a.Terms))
		for v, c := range a.Terms {
			if c%k != 0 {
				return nil, false
			}
			out.Terms[v] = c / k
		}
	}
	return out, true
}

// equal reports structural equality.
func (a *Affine) equal(b *Affine) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Const != b.Const || len(a.Terms) != len(b.Terms) {
		return false
	}
	for v, c := range a.Terms {
		if b.Terms[v] != c {
			return false
		}
	}
	return true
}

func (a *Affine) String() string {
	if a == nil {
		return "<nil>"
	}
	type term struct {
		name string
		c    int64
	}
	ts := make([]term, 0, len(a.Terms))
	for v, c := range a.Terms {
		ts = append(ts, term{v.Name, c})
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "%d", a.Const)
	for _, t := range ts {
		fmt.Fprintf(&b, "%+d·%s", t.c, t.name)
	}
	return b.String()
}

// NumVal is the numeric abstract value: an interval plus an optional
// exact affine form over pinned symbols.
type NumVal struct {
	Rng Interval
	Aff *Affine // nil when no exact symbolic form is known
}

// TopNum is the unconstrained numeric value.
func TopNum() NumVal { return NumVal{Rng: TopInterval()} }

// ConstNum is an exactly-known integer.
func ConstNum(v int64) NumVal {
	return NumVal{Rng: ConstInterval(v), Aff: ConstAffine(v)}
}

// SymNum is the pinned symbolic value 1·v ranging over rng.
func SymNum(v *ir.Var, rng Interval) NumVal {
	return NumVal{Rng: rng, Aff: VarAffine(v)}
}

// IsConst reports an exactly-known value.
func (n NumVal) IsConst() (int64, bool) {
	if n.Rng.IsConst() {
		return n.Rng.Lo, true
	}
	if n.Aff.IsConst() {
		return n.Aff.Const, true
	}
	return 0, false
}

func (n NumVal) String() string {
	if n.Aff != nil && !n.Rng.IsConst() {
		return n.Aff.String() + "∈" + n.Rng.String()
	}
	if n.Aff.IsConst() {
		return fmt.Sprintf("%d", n.Aff.Const)
	}
	return n.Rng.String()
}

func (n NumVal) join(o NumVal) NumVal {
	out := NumVal{Rng: n.Rng.Join(o.Rng)}
	if n.Aff.equal(o.Aff) {
		out.Aff = n.Aff
	}
	return out
}

func (n NumVal) widen(o NumVal) NumVal {
	out := NumVal{Rng: n.Rng.Widen(o.Rng)}
	if n.Aff.equal(o.Aff) {
		out.Aff = n.Aff
	}
	return out
}

// Add returns n + o, keeping the affine form when both sides have one.
func (n NumVal) Add(o NumVal) NumVal {
	out := NumVal{Rng: n.Rng.Add(o.Rng)}
	if n.Aff != nil && o.Aff != nil {
		out.Aff = n.Aff.add(o.Aff, 1)
	}
	return out
}

// Sub returns n - o.
func (n NumVal) Sub(o NumVal) NumVal {
	out := NumVal{Rng: n.Rng.Sub(o.Rng)}
	if n.Aff != nil && o.Aff != nil {
		out.Aff = n.Aff.add(o.Aff, -1)
		// Correlated symbols cancel: tighten the interval to the exact
		// constant when the difference is symbol-free.
		if out.Aff.IsConst() {
			out.Rng = ConstInterval(out.Aff.Const)
		}
	}
	return out
}

// Mul returns n * o; the affine form survives multiplication by a
// constant on either side.
func (n NumVal) Mul(o NumVal) NumVal {
	out := NumVal{Rng: n.Rng.Mul(o.Rng)}
	if k, ok := o.IsConst(); ok && n.Aff != nil {
		out.Aff = n.Aff.scale(k)
	} else if k, ok := n.IsConst(); ok && o.Aff != nil {
		out.Aff = o.Aff.scale(k)
	}
	return out
}

// Div returns n / o; the affine form survives exact constant division.
func (n NumVal) Div(o NumVal) NumVal {
	out := NumVal{Rng: n.Rng.Div(o.Rng)}
	if k, ok := o.IsConst(); ok && n.Aff != nil {
		if d, exact := n.Aff.divExact(k); exact {
			out.Aff = d
		}
	}
	return out
}

// Mod returns n % o.
func (n NumVal) Mod(o NumVal) NumVal {
	out := NumVal{Rng: n.Rng.Mod(o.Rng)}
	if a, okA := n.IsConst(); okA {
		if b, okB := o.IsConst(); okB && b != 0 {
			return ConstNum(a % b)
		}
	}
	return out
}

// Neg returns -n.
func (n NumVal) Neg() NumVal {
	out := NumVal{Rng: n.Rng.Neg()}
	if n.Aff != nil {
		out.Aff = n.Aff.scale(-1)
	}
	return out
}

// Bool is the three-point boolean lattice.
type Bool uint8

// Bool lattice points.
const (
	BBot     Bool = iota // unreached
	BFalse               // definitely false
	BTrue                // definitely true
	BUnknown             // either
)

func boolOf(b bool) Bool {
	if b {
		return BTrue
	}
	return BFalse
}

func (b Bool) join(o Bool) Bool {
	if b == BBot {
		return o
	}
	if o == BBot || b == o {
		return b
	}
	return BUnknown
}

func (b Bool) String() string {
	switch b {
	case BFalse:
		return "false"
	case BTrue:
		return "true"
	case BUnknown:
		return "⊤"
	}
	return "⊥"
}

// VKind tags abstract values.
type VKind uint8

// Abstract value kinds, mirroring the VM's value kinds that the cost
// engine needs to reason about.
const (
	VTop     VKind = iota // anything (also: reals, strings, records...)
	VNum                  // integer: NumVal
	VBool                 // boolean: B
	VRange                // range: Dims[0]
	VDomain               // domain: Dims[:Rank], Dist
	VArray                // array over Dims[:Rank], Dist
	VLocale               // locale handle; Num is its index
	VLocales              // the Locales array
)

// RangeInfo is the abstract lo..hi by stride of one dimension.
type RangeInfo struct {
	Lo, Hi NumVal
	Stride int64 // 0 = unknown, otherwise exact
}

// Size returns the abstract index count (hi-lo)/stride + 1.
func (r RangeInfo) Size() NumVal {
	st := r.Stride
	if st == 0 {
		return TopNum()
	}
	n := r.Hi.Sub(r.Lo)
	if st != 1 {
		n = n.Div(ConstNum(st))
	}
	n = n.Add(ConstNum(1))
	// An empty range (hi < lo) iterates zero times.
	if n.Rng.Lo < 0 {
		n.Rng.Lo = 0
		n.Aff = nil
	}
	return n
}

// Val is an abstract value.
type Val struct {
	Kind VKind
	Num  NumVal
	B    Bool
	Rank int
	Dims [3]RangeInfo
	Dist bool // Block-distributed (domains/arrays)
}

// Top is the unconstrained abstract value.
func Top() Val { return Val{Kind: VTop} }

// NumV wraps a NumVal.
func NumV(n NumVal) Val { return Val{Kind: VNum, Num: n} }

// ConstV is an exactly-known integer value.
func ConstV(v int64) Val { return NumV(ConstNum(v)) }

// BoolV wraps a boolean lattice point.
func BoolV(b Bool) Val { return Val{Kind: VBool, B: b} }

// AsNum views v as a numeric value (Top for non-numerics).
func (v Val) AsNum() NumVal {
	switch v.Kind {
	case VNum, VLocale:
		return v.Num
	case VBool:
		switch v.B {
		case BTrue:
			return ConstNum(1)
		case BFalse:
			return ConstNum(0)
		}
		return NumVal{Rng: MakeInterval(0, 1)}
	}
	return TopNum()
}

// Space returns the iteration dimensions of a range/domain/array value.
func (v Val) Space() ([]RangeInfo, bool) {
	switch v.Kind {
	case VRange:
		return v.Dims[:1], true
	case VDomain, VArray:
		if v.Rank > 0 {
			return v.Dims[:v.Rank], true
		}
	}
	return nil, false
}

// TripCount returns the abstract total index count of a range/domain/
// array value.
func (v Val) TripCount() NumVal {
	dims, ok := v.Space()
	if !ok {
		return TopNum()
	}
	n := ConstNum(1)
	for _, d := range dims {
		n = n.Mul(d.Size())
	}
	return n
}

func (r RangeInfo) join(o RangeInfo) RangeInfo {
	st := r.Stride
	if st != o.Stride {
		st = 0
	}
	return RangeInfo{Lo: r.Lo.join(o.Lo), Hi: r.Hi.join(o.Hi), Stride: st}
}

func (r RangeInfo) widen(o RangeInfo) RangeInfo {
	st := r.Stride
	if st != o.Stride {
		st = 0
	}
	return RangeInfo{Lo: r.Lo.widen(o.Lo), Hi: r.Hi.widen(o.Hi), Stride: st}
}

// Join returns the least upper bound of two abstract values.
func (v Val) Join(o Val) Val {
	return v.merge(o, false)
}

func (v Val) widen(o Val) Val {
	return v.merge(o, true)
}

func (v Val) merge(o Val, widen bool) Val {
	if v.Kind != o.Kind {
		return Top()
	}
	out := Val{Kind: v.Kind}
	switch v.Kind {
	case VNum, VLocale:
		if widen {
			out.Num = v.Num.widen(o.Num)
		} else {
			out.Num = v.Num.join(o.Num)
		}
	case VBool:
		out.B = v.B.join(o.B)
	case VRange, VDomain, VArray:
		if v.Rank != o.Rank || v.Dist != o.Dist {
			return Top()
		}
		out.Rank, out.Dist = v.Rank, v.Dist
		nd := v.Rank
		if v.Kind == VRange {
			nd = 1
		}
		for i := 0; i < nd; i++ {
			if widen {
				out.Dims[i] = v.Dims[i].widen(o.Dims[i])
			} else {
				out.Dims[i] = v.Dims[i].join(o.Dims[i])
			}
		}
	}
	return out
}

// Equal reports structural equality — used by interprocedural seeding to
// detect when a callee's parameter summary has stabilized.
func (v Val) Equal(o Val) bool { return v.equal(o) }

func (v Val) equal(o Val) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case VNum, VLocale:
		return v.Num.Rng == o.Num.Rng && v.Num.Aff.equal(o.Num.Aff)
	case VBool:
		return v.B == o.B
	case VRange, VDomain, VArray:
		if v.Rank != o.Rank || v.Dist != o.Dist {
			return false
		}
		nd := v.Rank
		if v.Kind == VRange {
			nd = 1
		}
		for i := 0; i < nd; i++ {
			a, b := v.Dims[i], o.Dims[i]
			if a.Stride != b.Stride ||
				a.Lo.Rng != b.Lo.Rng || !a.Lo.Aff.equal(b.Lo.Aff) ||
				a.Hi.Rng != b.Hi.Rng || !a.Hi.Aff.equal(b.Hi.Aff) {
				return false
			}
		}
	}
	return true
}

func (v Val) String() string {
	switch v.Kind {
	case VNum:
		return v.Num.String()
	case VBool:
		return v.B.String()
	case VLocale:
		return "locale(" + v.Num.String() + ")"
	case VLocales:
		return "Locales"
	case VRange:
		return rangeString(v.Dims[0])
	case VDomain, VArray:
		var b strings.Builder
		if v.Kind == VArray {
			b.WriteString("arr")
		}
		b.WriteByte('{')
		for i := 0; i < v.Rank; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(rangeString(v.Dims[i]))
		}
		b.WriteByte('}')
		if v.Dist {
			b.WriteString(" dmapped")
		}
		return b.String()
	}
	return "⊤"
}

func rangeString(r RangeInfo) string {
	s := r.Lo.String() + ".." + r.Hi.String()
	if r.Stride != 1 {
		s += fmt.Sprintf(" by %d", r.Stride)
	}
	return s
}
