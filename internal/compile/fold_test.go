package compile_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/vm"
)

// runProg compiles src, with or without --fast, and runs it on the VM.
// It returns the program's output and its compile or run error.
func runProg(src string, fast bool) (string, error) {
	res, err := compile.Source("t.mchpl", src, compile.Options{Fast: fast})
	if err != nil {
		return "", err
	}
	var out strings.Builder
	cfg := vm.DefaultConfig()
	cfg.Stdout = &out
	_, err = vm.New(res.Prog, cfg).Run()
	return out.String(), err
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// A param folded by sem must be the value the run computes: int ** a
// negative exponent is 0, so `0..n` is one iteration.
func TestParamNegativePowUnrollsOnce(t *testing.T) {
	src := `
param n = 2 ** -1;
proc main() {
  var c = 0;
  for param i in 0..n {
    c += 1;
  }
  writeln(n);
  writeln(c);
}
`
	out, err := runProg(src, false)
	if err != nil {
		t.Fatal(err)
	}
	if out != "0\n1\n" {
		t.Errorf("output %q, want %q", out, "0\n1\n")
	}
}

// The --fast folder compares two ints exactly, as the run does: these
// two are distinct but equal as float64.
func TestFastComparisonMatchesRun(t *testing.T) {
	src := "proc main() {\n  writeln(9007199254740993 > 9007199254740992);\n}\n"
	for _, fast := range []bool{false, true} {
		out, err := runProg(src, fast)
		if err != nil {
			t.Fatal(err)
		}
		if out != "true\n" {
			t.Errorf("fast=%v: output %q, want %q", fast, out, "true\n")
		}
	}
}

func TestSemFoldsRealPow(t *testing.T) {
	res, err := compile.Source("t.mchpl", "param r = 2.0 ** 0.5;\nproc main() { }\n", compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Info.Globals {
		if s.Name == "r" {
			if s.ConstVal == nil || s.ConstVal.Float() != math.Sqrt2 {
				t.Fatalf("param r folded to %v, want %v", s.ConstVal, math.Sqrt2)
			}
			return
		}
	}
	t.Fatal("param r not declared")
}

// foldOps are the binary operators FuzzFoldAgreesWithRun draws from;
// its op argument indexes this list modulo its length.
var foldOps = []string{"+", "-", "*", "/", "%", "**", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

// literal spells an operand of kind k%3 (int, real, bool) as MiniChapel
// source. ok is false for values no literal spells (the most negative
// int, NaN and the infinities).
func literal(k uint8, i int64, f float64) (string, bool) {
	switch k % 3 {
	case 0:
		if i == math.MinInt64 {
			return "", false
		}
		if i < 0 {
			return fmt.Sprintf("(-%d)", -i), true
		}
		return strconv.FormatInt(i, 10), true
	case 1:
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "", false
		}
		// The 'e' form always lexes as a real literal.
		s := strconv.FormatFloat(math.Abs(f), 'e', -1, 64)
		if math.Signbit(f) {
			return "(-" + s + ")", true
		}
		return s, true
	}
	return strconv.FormatBool(i&1 == 1), true
}

// FuzzFoldAgreesWithRun checks that compile-time folding computes what
// the run computes, for one operator over two literal operands: the
// default and --fast builds print the same bytes and fail the same way,
// and when the result is a small non-negative int, a `for param` loop
// bounded by a param of the same expression runs that many times.
func FuzzFoldAgreesWithRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, ka uint8, ia int64, fa float64, kb uint8, ib int64, fb float64) {
		a, okA := literal(ka, ia, fa)
		b, okB := literal(kb, ib, fb)
		if !okA || !okB {
			t.Skip("no literal spells this operand")
		}
		e := a + " " + foldOps[int(op)%len(foldOps)] + " " + b
		src := "proc main() {\n  writeln(" + e + ");\n}\n"
		out, err := runProg(src, false)
		fastOut, fastErr := runProg(src, true)
		if out != fastOut || errText(err) != errText(fastErr) {
			t.Fatalf("%s: default %q (err %v), --fast %q (err %v)", e, out, err, fastOut, fastErr)
		}
		n, perr := strconv.ParseInt(strings.TrimSpace(out), 10, 64)
		if err != nil || perr != nil || n < 0 || n > 64 {
			return
		}
		src = fmt.Sprintf("param p = %s;\nproc main() {\n  var c = 0;\n  for param i in 1..p {\n    c += 1;\n  }\n  writeln(c);\n}\n", e)
		trips, err := runProg(src, false)
		if err != nil || trips != out {
			t.Fatalf("%s: prints %q but a param of it unrolls %q times (err %v)", e, out, trips, err)
		}
	})
}
