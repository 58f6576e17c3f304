package arith

import (
	"math"
	"testing"

	"repro/internal/token"
	"repro/internal/types"
)

// IPow squares; repeated multiplication is the definition it must match
// in wrapping int64 arithmetic.
func TestIPowMatchesRepeatedMultiply(t *testing.T) {
	for _, a := range []int64{0, 1, -1, 2, -2, 3, 7, -10, 1 << 31, math.MaxInt64, math.MinInt64} {
		for b := int64(-3); b <= 130; b++ {
			want := int64(0)
			if b >= 0 {
				want = 1
				for i := int64(0); i < b; i++ {
					want *= a
				}
			}
			if got := IPow(a, b); got != want {
				t.Fatalf("IPow(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestBinOutcomes(t *testing.T) {
	cases := []struct {
		op          token.Kind
		a, b        Val
		want        Val
		handled, ok bool
	}{
		{token.GT, Int(9007199254740993), Int(9007199254740992), Bool(true), true, true},
		{token.GT, Int(9007199254740993), Real(9007199254740992), Bool(false), true, true},
		{token.SLASH, Int(1), Int(0), Val{}, true, false},
		{token.PERCENT, Int(1), Int(0), Val{}, true, false},
		{token.SLASH, Real(1), Int(0), Real(math.Inf(1)), true, true},
		{token.PERCENT, Real(7), Int(2), Val{}, false, false},
		{token.POW, Int(2), Int(-1), Int(0), true, true},
		{token.POW, Real(2), Real(0.5), Real(math.Sqrt2), true, true},
		{token.AND, Int(1), Int(1), Val{}, false, false},
		{token.LT, Bool(false), Bool(true), Val{}, false, false},
		{token.NEQ, Bool(false), Bool(true), Bool(true), true, true},
		{token.PLUS, Val{K: types.String}, Int(1), Val{}, false, false},
	}
	for _, c := range cases {
		got, handled, ok := Bin(c.op, c.a, c.b)
		if got != c.want || handled != c.handled || ok != c.ok {
			t.Errorf("Bin(%s, %+v, %+v) = %+v, %v, %v; want %+v, %v, %v",
				c.op, c.a, c.b, got, handled, ok, c.want, c.handled, c.ok)
		}
	}
}
