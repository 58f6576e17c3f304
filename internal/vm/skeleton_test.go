package vm_test

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/vm"
)

// skeletonRun executes src in skeleton mode at two locales.
func skeletonRun(t *testing.T, src string) (vm.Stats, error) {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := vm.DefaultConfig()
	cfg.NumLocales = 2
	cfg.MaxCycles = 100_000_000
	return vm.NewSkeleton(res.Prog, cfg).Run()
}

// TestSkeletonUnknowns pins skeleton mode's value rules: non-int array
// contents flow through arithmetic, math and reductions as unknowns
// without failing, int contents stay known, and the first decision an
// unknown would make aborts the run with its reason.
func TestSkeletonUnknowns(t *testing.T) {
	const prelude = `
config const n = 8;
var D: domain(1) dmapped Block = {0..#n};
var A: [D] real;
var B: [D] int;
var T: [D] 2*real;
proc main() {
  forall i in D {
    A[i] = sqrt(i * 2.0) + 1.0;
    B[i] = (i + 3) % n;
    T[i] = (A[i], -A[i]);
  }
  var s = + reduce A;
  var u = max(s, 1.0) * T[1](2);
  A[B[2]] = u;
`
	st, err := skeletonRun(t, prelude+"}\n")
	if err != nil {
		t.Fatalf("skeleton run failed: %v", err)
	}
	if st.CommMessages == 0 {
		t.Fatal("skeleton run charged no comm")
	}
	const k = "  var E: domain(1) = {0..#1};\n  var K: [E] int;\n  K = A[1];\n"
	for _, c := range []struct{ body, reason string }{
		{"  if s > 0.0 { writeln(s); }\n", "data-dependent branch in main at"},
		{k + "  var r = 1..K[0];\n  writeln(r);\n", "data-dependent range bound at"},
		{k + "  writeln(A[K[0]]);\n", "data-dependent index into A at"},
	} {
		_, err := skeletonRun(t, prelude+c.body+"}\n")
		if err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%q: err = %v, want %q", c.body, err, c.reason)
		}
	}
}

// TestUnknownAsIntPanics pins that an unknown never reads as a number.
func TestUnknownAsIntPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AsInt of KUnk did not panic")
		}
	}()
	vm.Value{K: vm.KUnk}.AsInt()
}
