package gobe

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/gobert"
	"repro/internal/compile"
	"repro/internal/serve"
)

const scalarProg = `
config const n = 40;
var total: int;
var acc: real;
var flip: bool;
var A: [1..n] real;
for i in 1..n {
  A[i] = i * 1.5;
}
for i in 1..n {
  total = total + i * 2 - 1;
  acc = acc + A[i] / 2.0 + i ** 2;
  flip = !flip && (i < 20 || total > 100);
}
var msg = "done";
writeln(msg, " ", total, " ", acc, " ", flip);
`

const taskProg = `
config const n = 16;
var D: domain(1) = {1..n};
var A: [D] real;
forall i in D {
  A[i] = i * 0.25;
}
var sum: real;
for i in D {
  sum = sum + A[i];
}
writeln("sum=", sum);
`

func TestRunnerMatchesInterpreterScalar(t *testing.T) {
	progs := []struct{ name, src string }{
		{"scalar.mchpl", scalarProg},
		{"task.mchpl", taskProg},
	}
	for _, p := range progs {
		spec := &gobert.RunSpec{Mode: "run", MaxCycles: 1_000_000_000, Request: &serve.Request{Cores: 4, Locales: 1}}
		interp, compiled, err := RunBoth(p.name, p.src, compile.Options{}, spec)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !compiled.Compiled {
			t.Fatalf("%s: compiled backend did not dispatch", p.name)
		}
		for _, d := range Diff(interp, compiled) {
			t.Errorf("%s: %s", p.name, d)
		}
		if interp.Output == "" {
			t.Fatalf("%s: empty program output", p.name)
		}
	}
}

func TestRunnerMatchesInterpreterExamples(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(root, "examples", "*", "*.mchpl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		for _, locales := range []int{1, 2} {
			spec := &gobert.RunSpec{Mode: "run", MaxCycles: 3_000_000_000, Request: &serve.Request{Cores: 4, Locales: locales}}
			interp, compiled, err := RunBoth(name, string(b), compile.Options{}, spec)
			if err != nil {
				t.Fatalf("%s locales=%d: %v", name, locales, err)
			}
			for _, d := range Diff(interp, compiled) {
				t.Errorf("%s locales=%d: %s", name, locales, d)
			}
		}
	}
}

func TestFastOptionsProduceDistinctRunners(t *testing.T) {
	r1, err := Build("scalar.mchpl", scalarProg, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build("scalar.mchpl", scalarProg, compile.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bin == r2.Bin {
		t.Fatalf("distinct compile options share a cached runner: %s", r1.Bin)
	}
	spec := &gobert.RunSpec{Mode: "run", MaxCycles: 1_000_000_000, Request: &serve.Request{Cores: 4}}
	interp, compiled, err := RunBoth("scalar.mchpl", scalarProg, compile.Options{Fast: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Diff(interp, compiled) {
		t.Error(d)
	}
}

// TestDistinctNamesProduceDistinctRunners pins the cache-key fix for
// IR-identical programs built under different names: the binary embeds
// (name, source) verbatim and its outcome mode rejects any other
// program, so sharing a cached runner across names broke every second
// caller (`blame -bench halo` vs the harness's "halo.mchpl" build).
func TestDistinctNamesProduceDistinctRunners(t *testing.T) {
	r1, err := Build("scalar.mchpl", scalarProg, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build("scalar", scalarProg, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bin == r2.Bin {
		t.Fatalf("distinct program names share a cached runner: %s", r1.Bin)
	}
	// Both runners must accept run specs for their own name and agree.
	var replies []*gobert.Reply
	for _, r := range []*Runner{r1, r2} {
		spec := &gobert.RunSpec{Mode: "run", MaxCycles: 1_000_000_000, Request: &serve.Request{Cores: 4, Locales: 1}}
		reply, err := r.Exec(spec)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if reply.Output == "" {
			t.Fatalf("%s: no program output", r.Name)
		}
		replies = append(replies, reply)
	}
	for _, d := range Diff(replies[0], replies[1]) {
		t.Error(d)
	}
}

// TestNoToolchainError is the regression test for the satellite fix:
// requesting the go backend without a toolchain must produce a clear
// wrapped ErrNoGoToolchain, not a panic (the CLIs turn it into a clean
// nonzero exit).
func TestNoToolchainError(t *testing.T) {
	t.Setenv("MCHPL_GOBE_CACHE", t.TempDir()) // defeat the binary cache
	t.Setenv("PATH", t.TempDir())             // no `go` here
	_, err := Build("toolchainless.mchpl", "writeln(1);\n", compile.Options{})
	if err == nil {
		t.Fatal("Build succeeded without a go toolchain")
	}
	if !errors.Is(err, ErrNoGoToolchain) {
		t.Fatalf("error does not wrap ErrNoGoToolchain: %v", err)
	}
	if !strings.Contains(err.Error(), "backend") {
		t.Fatalf("error message should mention the backend: %v", err)
	}
}

// writeTree writes files (slash paths relative to root) under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, body := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheKeyCoversSupportSources pins the runner cache key to the
// sources a runner links: an edit to go.mod or to a non-test .go file
// under gobert/ or internal/ must select a new runner, and an edit to a
// test, a testdata/ file or a command must not. No toolchain needed.
func TestCacheKeyCoversSupportSources(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                       "module repro\n\ngo 1.22\n",
		"gobert/gobert.go":             "package gobert\n",
		"internal/vm/vm.go":            "package vm\n",
		"internal/vm/vm_test.go":       "package vm\n",
		"internal/vm/testdata/prog.go": "package main\n",
		"cmd/blame/main.go":            "package main\n",
		"internal/serve/testdata/seed": "seed\n",
		"internal/serve/serve.go":      "package serve\n",
		"internal/serve/serve_test.go": "package serve\n",
		"internal/serve/notes.txt":     "notes\n",
	}
	writeTree(t, root, files)
	key := func() string {
		t.Helper()
		d, err := sourceDigest(root)
		if err != nil {
			t.Fatal(err)
		}
		return cacheKey("p.mchpl", "writeln(1);\n", d, compile.Options{})
	}
	base := key()
	for _, c := range []struct {
		path    string
		changes bool
	}{
		{"go.mod", true},
		{"gobert/gobert.go", true},
		{"internal/vm/vm.go", true},
		{"internal/serve/serve.go", true},
		{"internal/vm/vm_test.go", false},
		{"internal/serve/serve_test.go", false},
		{"internal/vm/testdata/prog.go", false},
		{"internal/serve/testdata/seed", false},
		{"internal/serve/notes.txt", false},
		{"cmd/blame/main.go", false},
	} {
		writeTree(t, root, map[string]string{c.path: files[c.path] + "// edited\n"})
		if got := key(); (got != base) != c.changes {
			t.Errorf("editing %s: key changed = %t, want %t", c.path, got != base, c.changes)
		}
		writeTree(t, root, map[string]string{c.path: files[c.path]})
		if got := key(); got != base {
			t.Fatalf("restoring %s did not restore the key", c.path)
		}
	}
	// A new support file is an edit too.
	writeTree(t, root, map[string]string{"internal/vm/extra.go": "package vm\n"})
	if key() == base {
		t.Error("adding internal/vm/extra.go left the key unchanged")
	}
}

// TestModuleRootSkipsNestedModules walks up from inside a nested module
// whose path merely starts with repro (perfbench declares
// repro/perfbench) and must land on the checkout root, whose sources
// the runner links and the cache key hashes.
func TestModuleRootSkipsNestedModules(t *testing.T) {
	root, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeTree(t, root, map[string]string{
		"go.mod":                "module repro\n\ngo 1.22\n",
		"perfbench/go.mod":      "module repro/perfbench\n\ngo 1.22\n\nrequire repro v0.0.0\n\nreplace repro => ../\n",
		"perfbench/sub/keep.go": "package sub\n",
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.Chdir(filepath.Join(root, "perfbench", "sub")); err != nil {
		t.Fatal(err)
	}
	t.Setenv("MCHPL_REPO_ROOT", "")
	got, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Fatalf("moduleRoot from perfbench/sub = %s, want the repro root %s", got, root)
	}
}

// TestBuildNeedsCheckout: with no checkout to hash, Build fails rather
// than reuse a cached runner nothing can verify.
func TestBuildNeedsCheckout(t *testing.T) {
	t.Setenv("MCHPL_GOBE_CACHE", t.TempDir())
	t.Setenv("MCHPL_REPO_ROOT", t.TempDir()) // no go.mod, no sources
	if _, err := Build("nocheckout.mchpl", "writeln(1);\n", compile.Options{}); err == nil {
		t.Fatal("Build succeeded without a checkout to hash")
	}
}
