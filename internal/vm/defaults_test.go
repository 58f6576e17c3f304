package vm_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/vm"
)

// TestRefLocalsBoundBeforeUse pins the precondition for giving ref locals
// no default value at frame entry: in every built-in and every example,
// with and without --fast, each instruction that reads a ref local or
// writes through it is dominated by an alias definition binding it.
func TestRefLocalsBoundBeforeUse(t *testing.T) {
	srcs := map[string]string{}
	for _, bp := range benchprog.All() {
		srcs[bp.Name] = bp.Source
	}
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".mchpl" {
			return err
		}
		src, err := os.ReadFile(path)
		srcs[path] = string(src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	refLocals := 0
	for name, src := range srcs {
		for _, fast := range []bool{false, true} {
			res, err := compile.Source(name, src, compile.Options{Fast: fast})
			if err != nil {
				t.Fatalf("%s (fast=%v): %v", name, fast, err)
			}
			for _, f := range res.Prog.Funcs {
				refLocals += checkRefLocalsBound(t, name, fast, f)
			}
		}
	}
	if refLocals == 0 {
		t.Fatal("no ref locals checked")
	}
}

// checkRefLocalsBound checks f's ref locals and returns how many it saw.
func checkRefLocalsBound(t *testing.T, name string, fast bool, f *ir.Func) int {
	t.Helper()
	isRef := map[*ir.Var]bool{}
	for _, l := range f.Locals {
		if l.IsRef {
			isRef[l] = true
		}
	}
	if len(isRef) == 0 {
		return 0
	}
	dom := cfg.Dominators(f)
	binds := map[*ir.Var][]*ir.Instr{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.IsAliasDef() && isRef[in.Dst] {
				binds[in.Dst] = append(binds[in.Dst], in)
			}
		}
	}
	bound := func(v *ir.Var, use *ir.Instr) bool {
		for _, d := range binds[v] {
			if d.Block == use.Block {
				if d.Index < use.Index {
					return true
				}
			} else if dom.Dominates(d.Block, use.Block) {
				return true
			}
		}
		return false
	}
	for _, b := range f.Blocks {
		if b != f.Entry() && dom.Idom(b) == nil {
			continue // unreachable: never executed
		}
		for _, in := range b.Instrs {
			touched := in.Uses()
			// A store into a ref local writes through it, except when
			// the store binds it; the zip markers only name the alias the
			// iteration binds, and the VM does not touch it.
			if d := in.Def(); d != nil && !in.IsAliasDef() && in.Op != ir.OpZipSetup && in.Op != ir.OpZipAdvance {
				touched = append(touched, d)
			}
			for _, v := range touched {
				if isRef[v] && !bound(v, in) {
					t.Errorf("%s (fast=%v): %s: %s uses ref local %s before any binding dominates it", name, fast, f.Name, in, v)
				}
			}
		}
	}
	return len(isRef)
}

// refTupleSrc sweeps a fixed 64-element array of tuples with a forall of
// n iterations. Every iteration binds ref temps to tuple elements
// (A[k], the index alias a) and writes through them.
const refTupleSrc = `
config const n = 1000;
var D: domain(1) = {0..#64};
var A: [D] 3*real;
proc main() {
  forall i in 1..n {
    A[i % 64](1) = A[i % 64](2) + 1.0;
  }
  forall a in A {
    a(3) = a(1) * 2.0;
  }
  writeln(A[7](1));
}
`

// minAllocsPerRun is the least of calls testing.AllocsPerRun(runs, f)
// measurements. A run of the VM allocates the same every time, but a
// garbage collection during a measurement adds allocations that are not
// the VM's: it empties fmt's printer pool (a sync.Pool), which the next
// writeln refills in sync.Pool.pinSlow and fmt.newPrinter (a run of
// refTupleSrc right after a forced collection counts four allocations
// more than one with the pool warm), and its mark worker may allocate a
// sudog. Such noise only adds, so the minimum is the program's count.
func minAllocsPerRun(calls, runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for i := 1; i < calls; i++ {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// TestForallRefTupleAllocs: a forall's per-iteration ref tuple temps
// allocate nothing, so doubling the trip count adds no allocations.
func TestForallRefTupleAllocs(t *testing.T) {
	res, err := compile.Source("t.mchpl", refTupleSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		cfg := vm.DefaultConfig()
		cfg.Configs = map[string]string{"n": strconv.Itoa(n)}
		return minAllocsPerRun(5, 3, func() {
			if _, err := vm.New(res.Prog, cfg).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(4000)
	t.Logf("allocs per run: n=2000 %.0f, n=4000 %.0f", small, large)
	if large > small {
		t.Errorf("allocations grow with the trip count: %.0f at n=2000, %.0f at n=4000", small, large)
	}
}
