package sem

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
)

func check(t *testing.T, src string) *Info {
	t.Helper()
	fset := source.NewFileSet()
	prog, err := parser.ParseFile(fset, "t.mchpl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Check(fset, prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return info
}

func checkErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	fset := source.NewFileSet()
	prog, perr := parser.ParseFile(fset, "t.mchpl", src)
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	_, err := Check(fset, prog)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSubstr)
	}
}

func globalSym(info *Info, name string) *Symbol {
	for _, g := range info.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

func TestInferScalarTypes(t *testing.T) {
	info := check(t, `
var a = 1;
var b = 2.5;
var c = true;
var d = "s";
var e: int(32);
`)
	cases := map[string]types.Kind{"a": types.Int, "b": types.Real, "c": types.Bool, "d": types.String, "e": types.Int}
	for name, k := range cases {
		s := globalSym(info, name)
		if s == nil || s.Type == nil || s.Type.Kind() != k {
			t.Errorf("%s: got %v, want kind %v", name, s.Type, k)
		}
	}
	if s := globalSym(info, "e"); s.Type.String() != "int(32)" {
		t.Errorf("e display = %q, want int(32)", s.Type.String())
	}
}

func TestTupleTypeAlias(t *testing.T) {
	info := check(t, `
type v3 = 3*real;
var p: v3;
var q = (1.0, 2.0, 3.0);
proc main() { p = q; }
`)
	p := globalSym(info, "p")
	tt, ok := p.Type.(*types.TupleType)
	if !ok || tt.Count != 3 {
		t.Fatalf("p type = %v", p.Type)
	}
	if tt.String() != "v3" {
		t.Errorf("alias display = %q", tt.String())
	}
}

func TestDomainAndArrayTypes(t *testing.T) {
	info := check(t, `
config const n = 8;
var binSpace: domain(1) = {0..#n};
var space2: domain(2) = {0..#n, 0..#n};
var Pos: [binSpace] real;
var Grid: [space2] int;
proc main() {
  Pos[0] = 1.5;
  Grid[1, 2] = 3;
}
`)
	bs := globalSym(info, "binSpace")
	if dt, ok := bs.Type.(*types.DomainType); !ok || dt.Rank != 1 {
		t.Fatalf("binSpace: %v", bs.Type)
	}
	g := globalSym(info, "Grid")
	if at, ok := g.Type.(*types.ArrayType); !ok || at.Rank != 2 {
		t.Fatalf("Grid: %v", g.Type)
	}
	p := globalSym(info, "Pos")
	if p.Type.String() != "[binSpace] real" {
		t.Errorf("Pos display = %q", p.Type.String())
	}
}

func TestNestedArrayType(t *testing.T) {
	info := check(t, `
config const n = 4;
var DistSpace: domain(1) = {0..#n};
var perBinSpace: domain(1) = {0..#8};
type v3 = 3*real;
var Pos: [DistSpace] [perBinSpace] v3;
proc main() {
  Pos[0][1] = (0.0, 0.0, 0.0);
}
`)
	p := globalSym(info, "Pos")
	want := "[DistSpace] [perBinSpace] v3"
	if p.Type.String() != want {
		t.Errorf("Pos display = %q, want %q", p.Type.String(), want)
	}
}

func TestRefAliasSlice(t *testing.T) {
	info := check(t, `
config const n = 8;
var D: domain(1) = {0..#n};
var inner: domain(1) = {1..6};
var A: [D] real;
ref R = A[inner];
proc main() { R[2] = 1.0; }
`)
	r := globalSym(info, "R")
	if r == nil || !r.IsRefAlias {
		t.Fatal("R should be a ref alias")
	}
	if at, ok := r.Type.(*types.ArrayType); !ok || at.Elem.Kind() != types.Real {
		t.Fatalf("R type: %v", r.Type)
	}
}

// TestRefDeclRequiresInitializer pins the rule the VM relies on when it
// gives ref locals no default value: every ref declaration binds storage
// at its declaration, so no read can reach an unbound ref.
func TestRefDeclRequiresInitializer(t *testing.T) {
	checkErr(t, `
record R { var a: int; }
proc main() { ref r: R; }
`, "ref declaration r requires an initializer")
	checkErr(t, `
var A: [1..4] real;
ref G: [1..4] real;
proc main() { }
`, "ref declaration G requires an initializer")
}

func TestProcCallChecks(t *testing.T) {
	check(t, `
proc add(a: int, b: int): int { return a + b; }
proc main() { var x = add(1, 2); }
`)
	checkErr(t, `
proc add(a: int, b: int): int { return a + b; }
proc main() { var x = add(1); }
`, "takes 2 arguments")
	checkErr(t, `
proc f(): int { return 1; }
proc main() { var s: string = f(); }
`, "cannot initialize")
}

func TestRefParamIsExitVariable(t *testing.T) {
	info := check(t, `
proc bump(ref x: real) { x += 1.0; }
proc main() { var v = 0.0; bump(v); }
`)
	var bump *Symbol
	for _, p := range info.Procs {
		if p.Name == "bump" {
			bump = p
		}
	}
	pt := bump.Type.(*types.ProcType)
	if !pt.Params[0].IsRef {
		t.Error("ref param not marked IsRef")
	}
}

func TestArraysPassByRefByDefault(t *testing.T) {
	info := check(t, `
config const n = 4;
var D: domain(1) = {0..#n};
proc fill(A: [D] real) { A[0] = 1.0; }
var G: [D] real;
proc main() { fill(G); }
`)
	var fill *Symbol
	for _, p := range info.Procs {
		if p.Name == "fill" {
			fill = p
		}
	}
	if !fill.Type.(*types.ProcType).Params[0].IsRef {
		t.Error("array param should default to ref intent")
	}
}

func TestRecordFieldsAndMethods(t *testing.T) {
	check(t, `
record atom {
  var x: real;
  var ncount: int;
  proc bump() { ncount += 1; }
}
var a: atom;
proc main() {
  a.x = 2.0;
  a.bump();
  var y = a.x + 1.0;
}
`)
	checkErr(t, `
record atom { var x: real; }
var a: atom;
proc main() { a.y = 1.0; }
`, "no field y")
}

func TestClassNewAndNil(t *testing.T) {
	check(t, `
class Node { var v: int; }
var head: Node;
proc main() {
  head = new Node();
  if head != nil { head.v = 3; }
}
`)
}

func TestTupleIndexingCallSyntax(t *testing.T) {
	info := check(t, `
type v3 = 3*real;
var p: v3;
proc main() {
  p(1) = 2.0;
  var s = p(1) + p(2) + p(3);
}
`)
	found := false
	for _, ci := range info.Calls {
		if ci.TupleIndex {
			found = true
		}
	}
	if !found {
		t.Error("no tuple-index call recorded")
	}
}

func TestZipLoopTypes(t *testing.T) {
	info := check(t, `
config const n = 4;
var D: domain(1) = {0..#n};
var A: [D] real;
var B: [D] real;
proc main() {
  forall (a, b) in zip(A, B) { a = b * 2.0; }
}
`)
	// Loop var over array must be a writable ref alias.
	var loopVarA *Symbol
	for id, sym := range info.Defs {
		if id.Name == "a" && sym.IsRefAlias {
			loopVarA = sym
		}
	}
	if loopVarA == nil {
		t.Fatal("zip loop var over array should be a ref alias")
	}
	if loopVarA.Type.Kind() != types.Real {
		t.Errorf("loop var type = %v", loopVarA.Type)
	}
}

func TestDomainDestructuring(t *testing.T) {
	check(t, `
config const n = 4;
var D2: domain(2) = {0..#n, 0..#n};
var G: [D2] real;
proc main() {
  forall (i, j) in D2 { G[i, j] = 1.0; }
}
`)
}

func TestParamForRequiresConstBounds(t *testing.T) {
	check(t, `
proc main() {
  var s = 0;
  for param i in 1..4 { s += i; }
}
`)
	checkErr(t, `
proc main() {
  var n = 4;
  for param i in 1..n { }
}
`, "compile-time constants")
}

func TestParamDeclFolding(t *testing.T) {
	info := check(t, `
param k = 2 * 3 + 1;
var t: k*real;
proc main() { }
`)
	s := globalSym(info, "t")
	tt, ok := s.Type.(*types.TupleType)
	if !ok || tt.Count != 7 {
		t.Fatalf("t type = %v, want 7*real", s.Type)
	}
}

func TestConfigConstRegistered(t *testing.T) {
	info := check(t, `
config const CLOMP_numParts = 64;
proc main() { }
`)
	s, ok := info.ConfigConsts["CLOMP_numParts"]
	if !ok || s.ConstVal == nil || s.ConstVal.Int() != 64 {
		t.Fatalf("config const not registered: %+v", s)
	}
}

func TestConstNotAssignable(t *testing.T) {
	checkErr(t, `
const c = 1;
proc main() { c = 2; }
`, "not assignable")
	checkErr(t, `
proc main() {
  for i in 1..4 { i = 2; }
}
`, "not assignable")
}

func TestUndefined(t *testing.T) {
	checkErr(t, `proc main() { x = 1; }`, "undefined: x")
	checkErr(t, `proc main() { var y = nothere(1); }`, "undefined: nothere")
}

func TestConditionMustBeBool(t *testing.T) {
	checkErr(t, `proc main() { if 1 { } }`, "must be bool")
	checkErr(t, `proc main() { while 2.0 { } }`, "must be bool")
}

func TestBreakOutsideLoop(t *testing.T) {
	checkErr(t, `proc main() { break; }`, "outside loop")
}

func TestSelectTyping(t *testing.T) {
	check(t, `
proc main() {
  var x = 2;
  var y = 0;
  select x {
    when 1 { y = 1; }
    when 2, 3 { y = 2; }
    otherwise { y = 9; }
  }
}
`)
	checkErr(t, `
proc main() {
  var x = 2;
  select x { when "s" { } }
}
`, "does not match")
}

func TestNestedProcCaptures(t *testing.T) {
	info := check(t, `
proc CalcElemNodeNormals(ref bx: 8*real) {
  var tmp = 0.0;
  proc ElemFaceNormal(a: int) {
    tmp += 1.0;
    bx(1) = tmp;
  }
  ElemFaceNormal(1);
}
proc main() { var b: 8*real; CalcElemNodeNormals(b); }
`)
	var nested *Symbol
	for _, p := range info.Procs {
		if p.Name == "ElemFaceNormal" {
			nested = p
		}
	}
	if nested == nil {
		t.Fatal("nested proc not collected")
	}
	caps := info.Captures[nested]
	names := map[string]bool{}
	for _, s := range caps {
		names[s.Name] = true
	}
	if !names["tmp"] || !names["bx"] {
		t.Errorf("captures = %v, want tmp and bx", names)
	}
}

func TestExprContextOfSymbols(t *testing.T) {
	info := check(t, `
var g = 1.0;
proc f() { var loc = 2.0; loc += g; }
proc main() { f(); }
`)
	g := globalSym(info, "g")
	if g.Context() != "main" {
		t.Errorf("global context = %q, want main", g.Context())
	}
	var loc *Symbol
	for _, s := range info.AllSyms {
		if s.Name == "loc" {
			loc = s
		}
	}
	if loc.Context() != "f" {
		t.Errorf("local context = %q, want f", loc.Context())
	}
}

func TestMainDetected(t *testing.T) {
	info := check(t, `proc main() { }`)
	if info.Main == nil {
		t.Fatal("main not detected")
	}
}

func TestBuiltinCalls(t *testing.T) {
	info := check(t, `
proc main() {
  var r = sqrt(2.0);
  var m = max(1, 2, 3);
  var a = abs(-1.5);
  writeln("x = ", r, m, a);
}
`)
	_ = info
	checkErr(t, `proc main() { var x = sqrt("s"); }`, "numeric")
	checkErr(t, `proc main() { var x = sqrt(1.0, 2.0); }`, "takes 1 argument")
}

func TestDomainMethods(t *testing.T) {
	check(t, `
config const n = 4;
var binSpace: domain(1) = {0..#n};
var DistSpace: domain(1) = binSpace.expand(1);
proc main() {
  var s = binSpace.size;
  var r = binSpace.dim(1);
  var lo = binSpace.low;
}
`)
}

func TestArrayPromotionOps(t *testing.T) {
	check(t, `
config const n = 4;
var D: domain(1) = {0..#n};
var A: [D] real;
var B: [D] real;
proc main() {
  A = 0.0;
  B = A * 2.0 + 1.0;
  var s = + reduce B;
  var m = max reduce A;
}
`)
}

func TestTupleArith(t *testing.T) {
	check(t, `
type v3 = 3*real;
proc main() {
  var a: v3;
  var b: v3;
  var c = a + b;
  var d = a * 0.5;
  var e = -a;
}
`)
	checkErr(t, `
proc main() {
  var a: 3*real;
  var b: 4*real;
  var c = a + b;
}
`, "size mismatch")
}

func TestSwapOperands(t *testing.T) {
	check(t, `proc main() { var a = 1; var b = 2; a <=> b; }`)
	checkErr(t, `proc main() { var a = 1; var b = 2.0; a <=> b; }`, "identical types")
}

func TestModuleInitOwnsTopStmts(t *testing.T) {
	info := check(t, `
var x = 0;
x = 3;
proc main() { }
`)
	if info.ModuleInit == nil {
		t.Fatal("module init missing")
	}
}

func TestMethodOnWrongType(t *testing.T) {
	checkErr(t, `proc main() { var x = 1; var y = x.expand(1); }`, "no method")
}

func TestRedeclaration(t *testing.T) {
	checkErr(t, `
proc main() {
  var x = 1;
  var x = 2;
}
`, "redeclared")
}

func TestWalkableInfoComplete(t *testing.T) {
	// Every expression that survives checking gets a type.
	fset := source.NewFileSet()
	src := `
config const n = 4;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  forall i in D { A[i] = i * 2.0; }
  var s = + reduce A;
  writeln(s);
}
`
	prog, _ := parser.ParseFile(fset, "t", src)
	info, err := Check(fset, prog)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	ast.Walk(prog, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if _, isZip := e.(*ast.ZipExpr); isZip {
				return true
			}
			if info.TypeOf(e) == nil {
				missing++
			}
		}
		return true
	})
	if missing > 0 {
		t.Errorf("%d expressions missing types", missing)
	}
}
