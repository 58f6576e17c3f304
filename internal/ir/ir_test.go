package ir_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/ir"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res.Prog
}

func TestFinalizeIdempotent(t *testing.T) {
	p := build(t, `
proc f(): int { return 42; }
proc main() { var x = f(); }
`)
	n1 := len(p.Instrs)
	p.Finalize()
	if len(p.Instrs) != n1 {
		t.Errorf("finalize changed instr count: %d vs %d", len(p.Instrs), n1)
	}
	// Addresses stay dense and CFG edges are not duplicated.
	for i, in := range p.Instrs {
		if int(in.Addr) != i {
			t.Fatalf("addr %d at index %d", in.Addr, i)
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			seen := map[int]int{}
			for _, s := range b.Succs {
				seen[s.ID]++
			}
			for id, n := range seen {
				// Two edges to the same block are only legal for a
				// branch with equal targets, which irgen never emits.
				if n > 1 {
					t.Errorf("%s b%d has %d edges to b%d", f.Name, b.ID, n, id)
				}
			}
		}
	}
}

func TestUsesAndDefs(t *testing.T) {
	p := build(t, `
config const n = 4;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  var x = 1.0;
  A[0] = x + 2.0;
}
`)
	f := p.FuncByName("main")
	var store *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpIndexStore {
				store = in
			}
		}
	}
	if store == nil {
		t.Fatal("no index store")
	}
	if store.Def() == nil || store.Def().Name != "A" {
		t.Errorf("store def = %v, want A", store.Def())
	}
	if !store.IsStoreThrough() {
		t.Error("index store is a store-through")
	}
	// Uses include the stored value, the index and the base.
	foundBase := false
	for _, u := range store.Uses() {
		if u.Name == "A" {
			foundBase = true
		}
	}
	if !foundBase {
		t.Error("store uses must include the base")
	}
}

func TestDumpRendersProgram(t *testing.T) {
	p := build(t, `
proc sq(x: real): real { return x * x; }
proc main() { var y = sq(2.0); }
`)
	out := p.Dump()
	for _, want := range []string{"func sq", "func main", "call", "@sq", "ret"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

func TestVarDisplay(t *testing.T) {
	p := build(t, `proc main() { var user = 1 + 2; }`)
	f := p.FuncByName("main")
	var userVar, tempVar *ir.Var
	for _, v := range f.AllVars() {
		if v.Name == "user" {
			userVar = v
		}
		if v.IsTemp && tempVar == nil {
			tempVar = v
		}
	}
	if userVar == nil || !userVar.Display() {
		t.Error("user var must display")
	}
	if tempVar == nil || tempVar.Display() {
		t.Error("temps must not display")
	}
}

// bindingShapeSources are the programs TestBindingShape checks besides
// the built-ins and examples: a forall over arrays (the spawn binds its
// index formal and by-ref captures) and a two-body cobegin (the second
// body binds through Spawn.ExtraArgs).
var bindingShapeSources = map[string]string{
	"forall": `
config const n = 8;
var D: domain(1) = {0..#n};
proc main() {
  var A: [D] real;
  var B: [D] real;
  forall i in D {
    A[i] = B[i] + 1.0;
  }
}
`,
	"cobegin": `
proc main() { var x = 0; var y = 0;
  cobegin { for i in 1..200000 { x = x + i; }  for j in 1..200000 { y = y + j; } }
  writeln(x + y); }
`,
}

// TestBindingShape checks Instr.Bindings on every call and spawn of every
// built-in, every example and bindingShapeSources: one binding per
// Callees entry, every non-index formal paired 1:1 with an actual of that
// body, and index formals only on forall/coforall spawns.
func TestBindingShape(t *testing.T) {
	progs := map[string]*ir.Program{}
	for name, src := range bindingShapeSources {
		progs[name] = build(t, src)
	}
	for _, bp := range benchprog.All() {
		progs[bp.Name] = bp.MustCompile(compile.Options{}).Prog
	}
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".mchpl" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		res, err := compile.Source(path, string(src), compile.Options{})
		if err != nil {
			return err
		}
		progs[path] = res.Prog
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refActuals := map[string]map[string]bool{} // program → actuals bound to ref formals
	for name, p := range progs {
		refActuals[name] = map[string]bool{}
		for _, in := range p.Instrs {
			if in.Op != ir.OpCall && in.Op != ir.OpSpawn {
				continue
			}
			bds, callees := in.Bindings(), in.Callees()
			if len(bds) != len(callees) {
				t.Fatalf("%s: %s: %d bindings for %d callees", name, in, len(bds), len(callees))
			}
			indexed := in.Spawn != nil && (in.Spawn.Kind == ir.SpawnForall || in.Spawn.Kind == ir.SpawnCoforall)
			for k, bd := range bds {
				if bd.Callee != callees[k] {
					t.Errorf("%s: %s: binding %d is %s, Callees has %s", name, in, k, bd.Callee.Name, callees[k].Name)
				}
				args := in.Args
				if k > 0 {
					args = in.Spawn.ExtraArgs[k-1]
				}
				if len(bd.Idx)+len(bd.Formals) != len(bd.Callee.Params) || len(bd.Actuals) != len(args) {
					t.Errorf("%s: %s: body %s has %d index + %d formals of %d params, %d of %d actuals",
						name, in, bd.Callee.Name, len(bd.Idx), len(bd.Formals), len(bd.Callee.Params), len(bd.Actuals), len(args))
				}
				if len(bd.Idx) > 0 && !indexed {
					t.Errorf("%s: %s: %d index formals outside forall/coforall", name, in, len(bd.Idx))
				}
				for j, f := range bd.Formals {
					if f.IsRef {
						refActuals[name][bd.Actuals[j].Name] = true
					}
				}
			}
		}
	}
	// A forall body writes A through a ref capture; each cobegin body
	// binds its own accumulator.
	for name, want := range map[string][]string{"forall": {"A"}, "cobegin": {"x", "y"}} {
		for _, v := range want {
			if !refActuals[name][v] {
				t.Errorf("%s: %s must be bound to a ref formal: %v", name, v, refActuals[name])
			}
		}
	}
}

// TestAliasBase pins the one alias rule: alias defs alias their operand,
// and so does a read into a class handle, but not a read into a value.
func TestAliasBase(t *testing.T) {
	p := build(t, `
class Part { var residue: real; }
config const np = 2;
var partSpace: domain(1) = {0..#np};
var partArray: [partSpace] Part;
var vals: [partSpace] real;
proc main() {
  partArray[0] = new Part();
  var q = partArray[0];
  var r = vals[1];
  ref s = vals[0];
  q.residue = r + s;
}
`)
	base := map[*ir.Var]*ir.Var{}
	named := map[string]*ir.Var{}
	for _, in := range p.FuncByName("main").Blocks[0].Instrs {
		if in.Dst == nil {
			continue
		}
		named[in.Dst.Name] = in.Dst
		if b := in.AliasBase(); b != nil {
			base[in.Dst] = b
		}
	}
	chase := func(name string) string {
		v := named[name]
		for base[v] != nil {
			v = base[v]
		}
		return v.Name
	}
	for v, want := range map[string]string{"q": "partArray", "s": "vals", "r": "r"} {
		if got := chase(v); got != want {
			t.Errorf("%s aliases %s, want %s", v, got, want)
		}
	}
}

func TestValidateRejectsDanglingBr(t *testing.T) {
	p := build(t, `proc main() { var x = 1; }`)
	f := p.FuncByName("main")
	last := f.Blocks[len(f.Blocks)-1]
	last.Instrs = append(last.Instrs[:len(last.Instrs)-1],
		&ir.Instr{Op: ir.OpBr})
	if err := p.Validate(); err == nil {
		t.Error("Validate must reject br without cond/targets")
	}
}

func TestInstrStringStable(t *testing.T) {
	p := build(t, `proc main() { var a = 1; var b = a + 2; }`)
	for _, in := range p.Instrs {
		if in.String() == "" {
			t.Fatalf("empty instr string for %v", in.Op)
		}
	}
}

func TestSpawnKindStrings(t *testing.T) {
	cases := map[ir.SpawnKind]string{
		ir.SpawnForall:   "forall",
		ir.SpawnCoforall: "coforall",
		ir.SpawnBegin:    "begin",
		ir.SpawnCobegin:  "cobegin",
		ir.SpawnOn:       "on",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}
