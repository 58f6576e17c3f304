package core_test

import (
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
)

const cacheSrc = `
var a: real;
var b: real;
for i in 1..8 {
  a = a + i;
  b = a * 2.0;
}
writeln(b);
`

func compileFor(t testing.TB) *compile.Result {
	t.Helper()
	res, err := compile.Source("core_cache.mchpl", cacheSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAnalyzeCachedHitIsIdentical: same (program, options) returns the
// identical *Analysis, so the profiler and the diagnostics passes share
// one immutable result.
func TestAnalyzeCachedHitIsIdentical(t *testing.T) {
	core.ResetCache()
	res := compileFor(t)
	a := core.AnalyzeCached(res.Prog, core.DefaultOptions())
	b := core.AnalyzeCached(res.Prog, core.DefaultOptions())
	if a != b {
		t.Fatalf("cache hit returned a different *Analysis: %p vs %p", a, b)
	}
}

// TestAnalyzeCachedOptionsMiss: differing core.Options must not share an
// entry — implicit transfer changes the blame graph.
func TestAnalyzeCachedOptionsMiss(t *testing.T) {
	core.ResetCache()
	res := compileFor(t)
	def := core.AnalyzeCached(res.Prog, core.DefaultOptions())
	opts := core.DefaultOptions()
	opts.ImplicitTransfer = !opts.ImplicitTransfer
	flipped := core.AnalyzeCached(res.Prog, opts)
	if def == flipped {
		t.Fatal("different Options shared a cache entry")
	}
}

// TestAnalyzeCachedProgramMiss: distinct program identities (even from
// identical source) are distinct keys — the cache keys on the *ir.Program
// pointer, matching the VM's own identity-keyed cost table.
func TestAnalyzeCachedProgramMiss(t *testing.T) {
	core.ResetCache()
	res1 := compileFor(t)
	res2 := compileFor(t)
	if res1.Prog == res2.Prog {
		t.Fatal("test setup: expected distinct program identities")
	}
	a1 := core.AnalyzeCached(res1.Prog, core.DefaultOptions())
	a2 := core.AnalyzeCached(res2.Prog, core.DefaultOptions())
	if a1 == a2 {
		t.Fatal("distinct programs shared a cache entry")
	}
}

// TestAnalyzeCachedConcurrent hammers one key from many goroutines (run
// under -race in CI): exactly one analysis, same pointer for all.
func TestAnalyzeCachedConcurrent(t *testing.T) {
	core.ResetCache()
	res := compileFor(t)
	const goroutines = 16
	results := make([]*core.Analysis, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = core.AnalyzeCached(res.Prog, core.DefaultOptions())
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw a different *Analysis", g)
		}
	}
}

// TestAnalyzeCachedConcurrentMixedOptions interleaves callers with
// different core.Options over the same program (run under -race in CI):
// pointer stability within an option set, distinctness across sets.
func TestAnalyzeCachedConcurrentMixedOptions(t *testing.T) {
	core.ResetCache()
	res := compileFor(t)
	mk := func(f func(*core.Options)) core.Options {
		o := core.DefaultOptions()
		f(&o)
		return o
	}
	optSets := []core.Options{
		core.DefaultOptions(),
		mk(func(o *core.Options) { o.ImplicitTransfer = !o.ImplicitTransfer }),
		mk(func(o *core.Options) { o.Interprocedural = !o.Interprocedural }),
		mk(func(o *core.Options) { o.LineGranularity = !o.LineGranularity }),
	}
	const rounds = 8
	results := make([][]*core.Analysis, len(optSets))
	for i := range results {
		results[i] = make([]*core.Analysis, rounds)
	}
	var wg sync.WaitGroup
	for i, opts := range optSets {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, opts core.Options) {
				defer wg.Done()
				results[i][r] = core.AnalyzeCached(res.Prog, opts)
			}(i, r, opts)
		}
	}
	wg.Wait()
	for i := range optSets {
		for r := 1; r < rounds; r++ {
			if results[i][r] != results[i][0] {
				t.Fatalf("option set %d: round %d saw a different *Analysis", i, r)
			}
		}
		for j := 0; j < i; j++ {
			if results[i][0] == results[j][0] {
				t.Fatalf("option sets %d and %d aliased one cache entry", i, j)
			}
		}
	}
}

// TestAnalyzeCachedPanicNotMemoized: an analysis that panics leaves no
// entry behind. Callers up the stack may recover (the experiment suite
// does), and a memoized panic would hand every later caller a nil
// *Analysis instead of the panic.
func TestAnalyzeCachedPanicNotMemoized(t *testing.T) {
	core.ResetCache()
	analyze := func() (an *core.Analysis, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return core.AnalyzeCached(nil, core.DefaultOptions()), false
	}
	for i := 0; i < 2; i++ {
		if an, panicked := analyze(); !panicked {
			t.Fatalf("call %d on a nil program returned %v without panicking", i+1, an)
		}
	}
}
