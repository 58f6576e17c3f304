// Package arith is MiniChapel's scalar operator semantics: the one
// definition of what the binary and unary operators compute on int,
// real and bool operands. sem folds param expressions through it, the
// --fast pipeline in compile folds constants through it, and the VM
// executes OpBin and OpUn through it, so a value folded at compile time
// is the value the run computes. The native backend's generated Go
// (internal/gobe genBin/genUn) is the one deliberate second copy; the
// backend differential tests pin it to this one.
package arith

import (
	"fmt"
	"math"

	"repro/internal/token"
	"repro/internal/types"
)

// Val is a scalar operand. K is types.Int, types.Real or types.Bool;
// any other kind is an operand no operator here handles. It holds no
// types.Type so that the VM can convert to and from it by copying
// fields on its hot path.
type Val struct {
	K types.Kind
	I int64
	F float64
	B bool
}

// Int makes an int operand.
func Int(i int64) Val { return Val{K: types.Int, I: i} }

// Real makes a real operand.
func Real(f float64) Val { return Val{K: types.Real, F: f} }

// Bool makes a bool operand.
func Bool(b bool) Val { return Val{K: types.Bool, B: b} }

func (v Val) numeric() bool { return v.K == types.Int || v.K == types.Real }

func (v Val) real() float64 {
	if v.K == types.Real {
		return v.F
	}
	return float64(v.I)
}

// Bin applies a binary operator. handled is false when the operator is
// not defined on these operand kinds here (the VM then tries its
// composite and string forms, the folders leave the expression alone);
// when handled, ok is false only for an int division or remainder by
// zero, which fails the run.
//
// Int op int stays int (`/` truncates, `**` with a negative exponent is
// 0) and compares exactly; any other numeric pair is computed in
// float64 (`**` is math.Pow, `/ 0` is ±Inf or NaN, and there is no real
// `%`); two bools support &&, ||, == and !=.
func Bin(op token.Kind, a, b Val) (r Val, handled, ok bool) {
	switch {
	case a.K == types.Int && b.K == types.Int:
		x, y := a.I, b.I
		switch op {
		case token.PLUS:
			return Int(x + y), true, true
		case token.MINUS:
			return Int(x - y), true, true
		case token.STAR:
			return Int(x * y), true, true
		case token.SLASH, token.PERCENT:
			if y == 0 {
				return Val{}, true, false
			}
			if op == token.SLASH {
				return Int(x / y), true, true
			}
			return Int(x % y), true, true
		case token.POW:
			return Int(IPow(x, y)), true, true
		}
		if c, ok := compare(op, x, y); ok {
			return Bool(c), true, true
		}
	case a.numeric() && b.numeric():
		x, y := a.real(), b.real()
		switch op {
		case token.PLUS:
			return Real(x + y), true, true
		case token.MINUS:
			return Real(x - y), true, true
		case token.STAR:
			return Real(x * y), true, true
		case token.SLASH:
			return Real(x / y), true, true
		case token.POW:
			return Real(math.Pow(x, y)), true, true
		}
		if c, ok := compare(op, x, y); ok {
			return Bool(c), true, true
		}
	case a.K == types.Bool && b.K == types.Bool:
		switch op {
		case token.AND:
			return Bool(a.B && b.B), true, true
		case token.OR:
			return Bool(a.B || b.B), true, true
		case token.EQ:
			return Bool(a.B == b.B), true, true
		case token.NEQ:
			return Bool(a.B != b.B), true, true
		}
	}
	return Val{}, false, false
}

// Un applies a unary operator: - on int or real, ! on bool. ok is false
// for any other operator or operand kind.
func Un(op token.Kind, a Val) (Val, bool) {
	switch {
	case op == token.MINUS && a.K == types.Int:
		return Int(-a.I), true
	case op == token.MINUS && a.K == types.Real:
		return Real(-a.F), true
	case op == token.NOT && a.K == types.Bool:
		return Bool(!a.B), true
	}
	return Val{}, false
}

// Compare applies a comparison operator in float64, the VM's rule for
// operands of two different non-numeric or mixed kinds (each read as a
// real). ok is false when op is not a comparison.
func Compare(op token.Kind, x, y float64) (r, ok bool) { return compare(op, x, y) }

func compare[T int64 | float64](op token.Kind, x, y T) (r, ok bool) {
	switch op {
	case token.EQ:
		return x == y, true
	case token.NEQ:
		return x != y, true
	case token.LT:
		return x < y, true
	case token.LE:
		return x <= y, true
	case token.GT:
		return x > y, true
	case token.GE:
		return x >= y, true
	}
	return false, false
}

// IPow is int ** int: a**b in wrapping int64 arithmetic, 0 for a
// negative exponent. It squares rather than multiplying b times, which
// gives the same wrapped product in O(log b) steps.
func IPow(a, b int64) int64 {
	if b < 0 {
		return 0
	}
	v := int64(1)
	for ; b > 0; b >>= 1 {
		if b&1 == 1 {
			v *= a
		}
		a *= a
	}
	return v
}

// Const is a compile-time constant: a param value in sem (sem.ConstValue)
// and an OpConst literal in the IR (ir.Lit). T is the constant's type;
// S holds a string constant.
type Const struct {
	T types.Type
	I int64
	F float64
	B bool
	S string
}

// Const returns v as a constant of the canonical int, real or bool type.
func (v Val) Const() *Const {
	c := &Const{I: v.I, F: v.F, B: v.B}
	switch v.K {
	case types.Int:
		c.T = types.IntType
	case types.Real:
		c.T = types.RealType
	case types.Bool:
		c.T = types.BoolType
	}
	return c
}

// Val returns c as an operand (a string constant's kind is one no
// operator here handles).
func (c *Const) Val() Val {
	var k types.Kind
	if c.T != nil {
		k = c.T.Kind()
	}
	return Val{K: k, I: c.I, F: c.F, B: c.B}
}

// Int returns the value as an int64.
func (c *Const) Int() int64 {
	if c.T.Kind() == types.Real {
		return int64(c.F)
	}
	return c.I
}

// Float returns the value as a float64.
func (c *Const) Float() float64 {
	if c.T.Kind() == types.Real {
		return c.F
	}
	return float64(c.I)
}

// String prints the constant as -dump-ir shows it (strings quoted).
func (c *Const) String() string {
	switch c.T.Kind() {
	case types.Int:
		return fmt.Sprintf("%d", c.I)
	case types.Real:
		return fmt.Sprintf("%g", c.F)
	case types.Bool:
		return fmt.Sprintf("%t", c.B)
	case types.String:
		return fmt.Sprintf("%q", c.S)
	}
	return "?"
}

// BinConst folds a binary operator over two constants, or returns nil
// when Bin does not evaluate it successfully.
func BinConst(op token.Kind, a, b *Const) *Const {
	if r, handled, ok := Bin(op, a.Val(), b.Val()); handled && ok {
		return r.Const()
	}
	return nil
}

// UnConst folds a unary operator over a constant, or returns nil.
func UnConst(op token.Kind, a *Const) *Const {
	if r, ok := Un(op, a.Val()); ok {
		return r.Const()
	}
	return nil
}
