package absint_test

import (
	"testing"

	"repro/internal/absint"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/token"
)

// --- interval lattice ------------------------------------------------------

func TestIntervalAlgebra(t *testing.T) {
	mk := absint.MakeInterval
	cases := []struct {
		name string
		got  absint.Interval
		want absint.Interval
	}{
		{"join", mk(0, 3).Join(mk(5, 9)), mk(0, 9)},
		{"join-empty", absint.EmptyInterval().Join(mk(1, 2)), mk(1, 2)},
		{"meet", mk(0, 7).Meet(mk(4, 9)), mk(4, 7)},
		{"add", mk(1, 2).Add(mk(10, 20)), mk(11, 22)},
		{"sub", mk(1, 2).Sub(mk(10, 20)), mk(-19, -8)},
		{"mul-sign", mk(-2, 3).Mul(mk(4, 4)), mk(-8, 12)},
		{"div-trunc", mk(7, 9).Div(mk(2, 2)), mk(3, 4)},
		{"mod-exact", mk(0, 5).Mod(mk(8, 8)), mk(0, 5)},
		{"sat-add", mk(absint.Inf, absint.Inf).Add(mk(1, 1)), mk(absint.Inf, absint.Inf)},
		{"sat-mul", mk(1<<40, 1<<40).Mul(mk(1<<40, 1<<40)), mk(absint.Inf, absint.Inf)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if got := mk(3, 9).Meet(mk(10, 12)); !got.IsEmpty() {
		t.Errorf("disjoint meet not empty: %v", got)
	}
	if got := mk(1, 10).Div(mk(-1, 1)); !got.IsTop() {
		t.Errorf("division by interval containing zero must go top, got %v", got)
	}
}

func TestIntervalWidenProperties(t *testing.T) {
	mk := absint.MakeInterval
	a, b := mk(0, 9), mk(0, 10)
	w := a.Widen(b)
	if w.Lo != 0 || w.Hi < absint.Inf {
		t.Errorf("unstable upper bound must widen to +inf, got %v", w)
	}
	// A second widening with anything already contained is a no-op: the
	// chain stabilizes.
	if w2 := w.Widen(mk(5, 1<<50)); w2 != w {
		t.Errorf("widening chain did not stabilize: %v -> %v", w, w2)
	}
	// Stable bounds are kept exact.
	if got := mk(0, 100).Widen(mk(10, 50)); got != mk(0, 100) {
		t.Errorf("stable widen changed bounds: %v", got)
	}
}

func TestCompareLattice(t *testing.T) {
	c5, c7 := absint.ConstNum(5), absint.ConstNum(7)
	rng := absint.NumVal{Rng: absint.MakeInterval(0, 9)}
	if got := absint.Compare(token.LT, c5, c7); got != absint.BTrue {
		t.Errorf("5 < 7 = %v, want true", got)
	}
	if got := absint.Compare(token.GE, c5, c7); got != absint.BFalse {
		t.Errorf("5 >= 7 = %v, want false", got)
	}
	if got := absint.Compare(token.LT, rng, c7); got != absint.BUnknown {
		t.Errorf("[0,9] < 7 = %v, want both", got)
	}
	if got := absint.Compare(token.LE, rng, absint.ConstNum(9)); got != absint.BTrue {
		t.Errorf("[0,9] <= 9 = %v, want true", got)
	}
}

// --- engine over compiled IR ----------------------------------------------

func mainOf(t *testing.T, src string) (*ir.Program, *ir.Func) {
	t.Helper()
	res, err := compile.Source("absint_test.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog, res.Prog.Main
}

func findVar(f *ir.Func, name string) *ir.Var {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != nil && in.Dst.Name == name {
				return in.Dst
			}
		}
	}
	return nil
}

// TestEngineLoopFixpoint runs the interval domain over a counted loop
// and checks the three contract points: the fixpoint terminates with
// every block reached, the accumulator's interval at the return block is
// a sound superset of the concrete value (10), and widening kept its
// lower bound exact while the upper bound went unbounded.
func TestEngineLoopFixpoint(t *testing.T) {
	_, main := mainOf(t, `
proc main() {
  var s = 0;
  for i in 0..9 {
    s = s + 1;
  }
  writeln(s);
}
`)
	d := &absint.IntDomain{Fn: main}
	r := absint.Run(main, d)
	for _, b := range main.Blocks {
		if !r.Reached[b.ID] {
			t.Fatalf("block b%d not reached", b.ID)
		}
	}
	s := findVar(main, "s")
	if s == nil {
		t.Fatal("no var s in compiled main")
	}
	last := main.Blocks[len(main.Blocks)-1]
	env, ok := r.Out(last)
	if !ok {
		t.Fatalf("no out state for b%d", last.ID)
	}
	rng := env.Get(s).AsNum().Rng
	if !rng.Contains(10) {
		t.Errorf("s at exit = %v, must contain the concrete value 10", rng)
	}
	if rng.Lo != 0 {
		t.Errorf("s lower bound = %d, widening should keep the stable 0", rng.Lo)
	}
}

// TestEnginePinnedInduction pins the loop induction variable to a
// symbolic value over its bound interval — the cost engine's second
// analysis round — and checks the body sees the exact range instead of
// a widened one, and that branch refinement on the pinned comparison
// does not deaden the back edge (the halo r-loop regression).
func TestEnginePinnedInduction(t *testing.T) {
	_, main := mainOf(t, `
proc main() {
  var s = 0;
  for i in 0..9 {
    s = s + i;
  }
  writeln(s);
}
`)
	iv := findVar(main, "i")
	if iv == nil {
		t.Fatal("no induction variable i")
	}
	d := &absint.IntDomain{
		Fn:   main,
		Pins: map[*ir.Var]absint.Val{iv: absint.NumV(absint.SymNum(iv, absint.MakeInterval(0, 9)))},
	}
	r := absint.Run(main, d)
	for _, b := range main.Blocks {
		if !r.Reached[b.ID] {
			t.Fatalf("block b%d not reached with pinned induction variable", b.ID)
		}
		env, ok := r.Out(b)
		if !ok {
			continue
		}
		got := env.Get(iv).AsNum()
		if got.Rng != absint.MakeInterval(0, 9) {
			t.Errorf("b%d: pinned i = %v, want range [0,9] everywhere", b.ID, got)
		}
	}
}
