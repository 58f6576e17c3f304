package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ir"
)

// blamedKey is one Blamed entry in comparable form.
type blamedKey struct {
	sym, v, root any
	path         string
}

// sameBlame reports whether got and want hold the same entries, as
// multisets.
func sameBlame(got, want []core.Blamed) bool {
	if len(got) != len(want) {
		return false
	}
	count := make(map[blamedKey]int)
	for _, b := range want {
		count[blamedKey{b.Sym, b.Var, b.Root, b.Path}]++
	}
	for _, b := range got {
		k := blamedKey{b.Sym, b.Var, b.Root, b.Path}
		if count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}

func describe(bl []core.Blamed) string {
	s := "["
	for i, b := range bl {
		if i > 0 {
			s += " "
		}
		if b.Path != "" {
			s += b.Path
		} else {
			s += b.Var.Name
		}
	}
	return s + "]"
}

// callSites maps each function to the call and spawn instructions that
// enter it.
func callSites(prog *ir.Program) map[*ir.Func][]core.Frame {
	sites := make(map[*ir.Func][]core.Frame)
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall && in.Op != ir.OpSpawn {
					continue
				}
				callees := []*ir.Func{in.Callee}
				if in.Spawn != nil {
					callees = append(callees, in.Spawn.Extra...)
				}
				for _, c := range callees {
					if c != nil {
						sites[c] = append(sites[c], core.Frame{Fn: f, Instr: in})
					}
				}
			}
		}
	}
	return sites
}

// samplePaths returns every instruction of prog as a single-frame path,
// then n seeded random 2–4-frame paths glued through real call and spawn
// sites, plus a few paths whose frames name an instruction outside their
// function.
func samplePaths(prog *ir.Program, seed int64, n int) [][]core.Frame {
	var paths [][]core.Frame
	var all []core.Frame
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				fr := core.Frame{Fn: f, Instr: in}
				all = append(all, fr)
				paths = append(paths, []core.Frame{fr})
			}
		}
	}
	sites := callSites(prog)
	var called []core.Frame
	for _, fr := range all {
		if len(sites[fr.Fn]) > 0 {
			called = append(called, fr)
		}
	}
	if len(called) == 0 {
		return paths
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		path := []core.Frame{called[rng.Intn(len(called))]}
		depth := 2 + rng.Intn(3)
		for len(path) < depth {
			callers := sites[path[len(path)-1].Fn]
			if len(callers) == 0 {
				break
			}
			path = append(path, callers[rng.Intn(len(callers))])
		}
		paths = append(paths, path)
	}
	// An instruction the frame's function does not index blames nothing
	// at its level and stops bubbling; caller-side transfer still applies.
	for i := 0; i < 8 && len(paths) > len(all); i++ {
		p := append([]core.Frame(nil), paths[len(all)+i]...)
		lvl := rng.Intn(len(p))
		p[lvl].Instr = all[rng.Intn(len(all))].Instr
		paths = append(paths, p)
	}
	return paths
}

// TestAttributeSampleMatchesReference: the memoized attribution returns
// the same blame as the full-scan reference on every instruction of every
// built-in bench and on random glued call paths, under both granularities
// and with bubbling on and off. Each path is attributed twice, so both
// the filling and the filled memo are checked.
func TestAttributeSampleMatchesReference(t *testing.T) {
	var bubbled atomic.Int64 // paths whose blame reached a caller frame
	t.Run("benches", func(t *testing.T) {
		for _, p := range benchprog.All() {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				res, err := compile.Source(p.Name, p.Source, compile.Options{})
				if err != nil {
					t.Fatal(err)
				}
				paths := samplePaths(res.Prog, 1, 500)
				for _, lines := range []bool{false, true} {
					for _, interproc := range []bool{true, false} {
						opts := core.DefaultOptions()
						opts.LineGranularity = lines
						opts.Interprocedural = interproc
						a := core.Analyze(res.Prog, opts)
						for i, path := range paths {
							want := a.ReferenceAttributeSample(path)
							if len(path) > 1 && len(want) > len(a.ReferenceAttributeSample(path[:1])) {
								bubbled.Add(1)
							}
							for pass := 0; pass < 2; pass++ {
								if got := a.AttributeSample(path); !sameBlame(got, want) {
									t.Fatalf("lines=%t interproc=%t pass %d, path %d (%d frames, at %s):\n got  %s\n want %s",
										lines, interproc, pass, i, len(path), path[0].Fn.Name, describe(got), describe(want))
								}
							}
						}
					}
				}
			})
		}
	})
	if bubbled.Load() == 0 {
		t.Fatal("no random path bubbled blame to a caller; the property covers level 0 only")
	}
}

// TestAttributeSampleConcurrent attributes from 8 goroutines against one
// shared, cold Analysis; run it under -race.
func TestAttributeSampleConcurrent(t *testing.T) {
	p := benchprog.Halo()
	res, err := compile.Source(p.Name, p.Source, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := samplePaths(res.Prog, 2, 200)
	a := core.Analyze(res.Prog, core.DefaultOptions())
	want := make([][]core.Blamed, len(paths))
	for i, path := range paths {
		want[i] = a.ReferenceAttributeSample(path)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(paths)) {
				if got := a.AttributeSample(paths[i]); !sameBlame(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d, path %d: got %s, want %s", g, i, describe(got), describe(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
