package gobe

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/gobert"
	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/source"
)

// FuzzBackendDiff is the semantic differential fuzzer (carried ROADMAP
// item): any program the frontend accepts must behave identically on
// the interpreter and the native-compiled backend. Inputs are
// normalized through an ast.Print round-trip first — the fuzzer then
// also proves the printed form of an accepted program is accepted and
// equivalent, so it exercises printer, parser, compiler and both
// backends in one property. The corpus is seeded from the .mchpl
// examples plus small programs covering each inline-op family.
func FuzzBackendDiff(f *testing.F) {
	if _, err := Build("fuzzseed.mchpl", "writeln(0);\n", compile.Options{}); err != nil {
		if errors.Is(err, ErrNoGoToolchain) {
			f.Skip("no go toolchain; the compiled backend cannot build runners")
		}
		f.Fatal(err)
	}

	seeds := []string{
		"writeln(1 + 2 * 3);\n",
		scalarProg,
		taskProg,
		`
var t = (1.0, 2.5, 4.0);
var s = 0.0;
for i in 1..3 {
  s += t(i);
}
t(2) = s;
writeln(t(1), " ", t(2), " ", t(3));
`,
		`
record pt { var x: real; var y: real; }
var p: pt;
p.x = 3.5;
p.y = p.x * 2.0;
writeln(p.x + p.y);
`,
		`
config const n = 6;
var D: domain(1) = {0..#n};
var A: [D] real;
coforall i in D {
  A[i] = i * 1.5;
}
var s = 0.0;
for i in D {
  s += A[i];
}
writeln(s);
`,
		// Indirect indexing (A[B[i]]): the access pattern the analyzer
		// classifies SiteIrregular and the comm inspector coalesces.
		`
config const n = 8;
var D: domain(1) dmapped Block = {0..#n};
var A: [D] real;
var B: [D] int;
var Y: [D] real;
forall i in D {
  A[i] = 1.0 + i;
  B[i] = (i * 3 + 1) % n;
}
forall i in D {
  Y[i] = A[B[i]];
}
forall i in D {
  A[B[i]] = A[B[i]] + Y[i];
}
writeln(+ reduce Y);
`,
	}
	if root, err := moduleRoot(); err == nil {
		paths, _ := filepath.Glob(filepath.Join(root, "examples", "*", "*.mchpl"))
		for _, p := range paths {
			if b, err := os.ReadFile(p); err == nil {
				seeds = append(seeds, string(b))
			}
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		prog, err := parser.ParseFile(source.NewFileSet(), "fuzz.mchpl", src)
		if err != nil {
			t.Skip("parse rejected")
		}
		// Round-trip through the printer: the canonical form must mean
		// the same program, so run THAT on both backends.
		printed := ast.Print(prog)
		if _, err := compile.SourceCached("fuzz.mchpl", printed, compile.Options{}); err != nil {
			t.Skip("frontend rejected")
		}
		// A low cycle budget keeps pathological loops fast on both sides;
		// hitting it is itself a pinned, comparable outcome (RunErr).
		spec := &gobert.RunSpec{Mode: "run", MaxCycles: 5_000_000, Request: &serve.Request{Cores: 4, Locales: 1}}
		interp, compiled, err := RunBoth("fuzz.mchpl", printed, compile.Options{}, spec)
		if err != nil {
			// Build or harness failures are findings, not skips: every
			// frontend-accepted program must build on both backends.
			t.Fatalf("differential run failed: %v", err)
		}
		for _, d := range Diff(interp, compiled) {
			t.Errorf("backend divergence:\n%s", d)
		}
	})
}
