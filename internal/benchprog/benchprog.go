// Package benchprog holds the MiniChapel ports of the paper's three case
// studies — MiniMD, CLOMP and LULESH (§V) — in their original and
// optimized forms, plus the small Fig. 1 worked example. Sources are
// generated/embedded Go strings so the experiment harness and tests can
// compile any variant deterministically.
package benchprog

import (
	"sort"

	"repro/internal/compile"
)

// Fig1Example is the five-line example of paper Fig. 1 (lines 16-20 in
// the paper; here the statements sit on lines 16-20 too, via padding).
const Fig1Example = `proc main() {
  var a = 0;
  var b = 0;
  var c = 0;
  //
  //
  //
  //
  //
  //
  //
  //
  //
  //
  //
  a = 2;
  b = 3;
  if a < b {
    a = b + 1; }
  c = a + b;
  writeln(c);
}
`

// Program identifies one compiled benchmark variant.
type Program struct {
	Name      string
	Source    string
	Optimized bool // benchmark-level optimization (not --fast)
}

// Compile builds the program with the given compiler options. Benchmark
// sources are compile-time constants, so results are memoized: repeated
// compiles of the same variant share one immutable *compile.Result
// across tables, benchmarks and goroutines.
func (p Program) Compile(opts compile.Options) (*compile.Result, error) {
	return compile.SourceCached(p.Name+".mchpl", p.Source, opts)
}

// MustCompile builds or panics (benchmark sources are compile-time
// constants; failure is a bug).
func (p Program) MustCompile(opts compile.Options) *compile.Result {
	r, err := p.Compile(opts)
	if err != nil {
		panic(err)
	}
	return r
}

// MiniMD returns the MiniMD program (original or optimized).
func MiniMD(optimized bool) Program {
	name := "minimd"
	if optimized {
		name = "minimd_opt"
	}
	return Program{Name: name, Source: MiniMDSource(optimized), Optimized: optimized}
}

// CLOMP returns the CLOMP program (original or flat-array optimized).
func CLOMP(optimized bool) Program {
	name := "clomp"
	if optimized {
		name = "clomp_opt"
	}
	return Program{Name: name, Source: CLOMPSource(optimized), Optimized: optimized}
}

// LULESH returns the LULESH program for a variant.
func LULESH(v LuleshVariant) Program {
	return Program{Name: "lulesh_" + sanitize(v.Tag()), Source: LULESHSource(v), Optimized: v != LuleshOriginal}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// builtins maps each built-in benchmark's name — mchpl and blame
// -bench, the server's "bench" field — to its program.
var builtins = map[string]func() Program{
	"minimd":      func() Program { return MiniMD(false) },
	"minimd_opt":  func() Program { return MiniMD(true) },
	"clomp":       func() Program { return CLOMP(false) },
	"clomp_opt":   func() Program { return CLOMP(true) },
	"lulesh":      func() Program { return LULESH(LuleshOriginal) },
	"lulesh_best": func() Program { return LULESH(LuleshBest) },
	"halo":        Halo,
	"wavefront":   Wavefront,
	"gather":      Gather,
	"spmv":        SpMV,
	"fig1":        func() Program { return Program{Name: "fig1", Source: Fig1Example} },
}

// Builtin returns the built-in benchmark with the given name.
func Builtin(name string) (Program, bool) {
	mk, ok := builtins[name]
	if !ok {
		return Program{}, false
	}
	return mk(), true
}

// Names lists the built-in benchmark names, sorted.
func Names() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every built-in benchmark program, in Names order.
func All() []Program {
	var ps []Program
	for _, name := range Names() {
		ps = append(ps, builtins[name]())
	}
	return ps
}
