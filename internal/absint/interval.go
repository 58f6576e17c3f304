// Package absint is a small abstract-interpretation framework over the
// repo's IR + CFG: a generic forward dataflow engine (worklist over
// reverse postorder, lattice interface, widening at loop heads) with one
// concrete domain — an interval/affine domain for loop bounds and index
// expressions (interval.go, value.go, domain.go).
//
// The static cost engine (internal/analyze/cost) runs it to predict trip
// counts and block frequencies, and so per-variable blame, without a
// profiled run; see DESIGN.md "Static cost model".
package absint

import "fmt"

// inf is the saturation bound for interval endpoints. All arithmetic
// clamps into [-inf, inf] so that +/- cannot overflow int64 even after
// repeated widening; endpoints at the bound mean "unbounded".
const inf = int64(1) << 62

// Inf is the exported saturation bound: interval endpoints at ±Inf are
// unbounded, and clients must not treat them as ordinary integers.
const Inf = inf

// Interval is a machine-integer interval [Lo, Hi] with saturation at
// +/-inf standing for unbounded ends. The zero value is the empty
// interval (Lo > Hi is empty; the canonical empty is {1, 0}).
type Interval struct {
	Lo, Hi int64
}

// Canonical intervals.
func TopInterval() Interval   { return Interval{-inf, inf} }
func EmptyInterval() Interval { return Interval{1, 0} }
func ConstInterval(v int64) Interval {
	return Interval{clamp(v), clamp(v)}
}

// MakeInterval builds [lo, hi], clamping into the saturation range.
func MakeInterval(lo, hi int64) Interval {
	return Interval{clamp(lo), clamp(hi)}
}

func clamp(v int64) int64 {
	if v > inf {
		return inf
	}
	if v < -inf {
		return -inf
	}
	return v
}

// IsEmpty reports Lo > Hi.
func (i Interval) IsEmpty() bool { return i.Lo > i.Hi }

// IsConst reports a single-point interval.
func (i Interval) IsConst() bool { return i.Lo == i.Hi && i.Lo > -inf && i.Hi < inf }

// IsTop reports both ends unbounded.
func (i Interval) IsTop() bool { return i.Lo <= -inf && i.Hi >= inf }

// Bounded reports both ends finite.
func (i Interval) Bounded() bool { return i.Lo > -inf && i.Hi < inf }

// Contains reports v in [Lo, Hi].
func (i Interval) Contains(v int64) bool { return v >= i.Lo && v <= i.Hi }

func (i Interval) String() string {
	if i.IsEmpty() {
		return "⊥"
	}
	lo, hi := "-inf", "+inf"
	if i.Lo > -inf {
		lo = fmt.Sprintf("%d", i.Lo)
	}
	if i.Hi < inf {
		hi = fmt.Sprintf("%d", i.Hi)
	}
	return "[" + lo + "," + hi + "]"
}

// satAdd adds with saturation; an unbounded operand dominates.
func satAdd(a, b int64) int64 {
	if a >= inf || b >= inf {
		if a <= -inf || b <= -inf { // inf + -inf: unknown, saturate up
			return inf
		}
		return inf
	}
	if a <= -inf || b <= -inf {
		return -inf
	}
	return clamp(a + b)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	aa, bb := a, b
	if aa < 0 {
		aa = -aa
	}
	if bb < 0 {
		bb = -bb
	}
	if aa >= inf || bb >= inf || aa > inf/bb {
		if neg {
			return -inf
		}
		return inf
	}
	return clamp(a * b)
}

// Join returns the smallest interval containing both.
func (i Interval) Join(o Interval) Interval {
	if i.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return i
	}
	lo, hi := i.Lo, i.Hi
	if o.Lo < lo {
		lo = o.Lo
	}
	if o.Hi > hi {
		hi = o.Hi
	}
	return Interval{lo, hi}
}

// Meet intersects.
func (i Interval) Meet(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	lo, hi := i.Lo, i.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo > hi {
		return EmptyInterval()
	}
	return Interval{lo, hi}
}

// Widen jumps any unstable bound of i (relative to prev) to infinity,
// guaranteeing termination of the fixpoint regardless of loop bounds.
func (prev Interval) Widen(next Interval) Interval {
	if prev.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return prev
	}
	out := prev
	if next.Lo < prev.Lo {
		out.Lo = -inf
	}
	if next.Hi > prev.Hi {
		out.Hi = inf
	}
	return out
}

// Add returns i + o.
func (i Interval) Add(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	return Interval{satAdd(i.Lo, o.Lo), satAdd(i.Hi, o.Hi)}
}

// Sub returns i - o.
func (i Interval) Sub(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	return Interval{satAdd(i.Lo, -o.Hi), satAdd(i.Hi, -o.Lo)}
}

// Neg returns -i.
func (i Interval) Neg() Interval {
	if i.IsEmpty() {
		return i
	}
	return Interval{-i.Hi, -i.Lo}
}

// Mul returns i * o (min/max over endpoint products).
func (i Interval) Mul(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	c := [4]int64{
		satMul(i.Lo, o.Lo), satMul(i.Lo, o.Hi),
		satMul(i.Hi, o.Lo), satMul(i.Hi, o.Hi),
	}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Interval{lo, hi}
}

// Div returns i / o using Go's truncated integer division. Division by an
// interval containing 0 goes to Top on that side (the VM would fail at
// run time; statically we stay sound).
func (i Interval) Div(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	if o.Contains(0) {
		return TopInterval()
	}
	div := func(a, b int64) int64 {
		if a >= inf || a <= -inf {
			if (a > 0) != (b > 0) {
				return -inf
			}
			return inf
		}
		if b >= inf || b <= -inf {
			return 0
		}
		return a / b
	}
	c := [4]int64{
		div(i.Lo, o.Lo), div(i.Lo, o.Hi),
		div(i.Hi, o.Lo), div(i.Hi, o.Hi),
	}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Interval{lo, hi}
}

// Mod returns i % o conservatively: result magnitude is below |o|max and
// shares the sign behavior of Go's % (sign of the dividend).
func (i Interval) Mod(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	m := o.Hi
	if -o.Lo > m {
		m = -o.Lo
	}
	if m >= inf || m <= 0 {
		return TopInterval()
	}
	lo, hi := -(m - 1), m-1
	if i.Lo >= 0 {
		lo = 0
	}
	if i.Hi <= 0 {
		hi = 0
	}
	// A bounded non-negative dividend smaller than the divisor is exact.
	if i.Lo >= 0 && o.IsConst() && i.Hi < o.Lo {
		return i
	}
	return Interval{lo, hi}
}
