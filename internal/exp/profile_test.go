package exp

import (
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/blame"
)

// TestProfiledShapeNoAlias pins the profile memo's key, the request's
// Key over the program and its canonical config consts (the only run
// shape profileProgram varies). Distinct config maps get distinct
// entries, while an equal map built separately hits the existing one.
func TestProfiledShapeNoAlias(t *testing.T) {
	profMemo.Reset()
	prog := benchprog.Halo()
	cfgs := benchprog.HaloConfig{N: 64, Reps: 2}.Configs()

	base, err := profileProgram(prog, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.CommMessages != 0 {
		t.Fatalf("default shape is single-locale; saw %d comm messages", base.Stats.CommMessages)
	}
	same, err := profileProgram(prog, benchprog.HaloConfig{N: 64, Reps: 2}.Configs())
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Fatal("an equal config map missed the cached entry")
	}
	other, err := profileProgram(prog, benchprog.HaloConfig{N: 64, Reps: 3}.Configs())
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Fatal("distinct config maps aliased one cache entry")
	}
	if other.Stats.Instructions == base.Stats.Instructions {
		t.Fatalf("distinct config maps ran the same work (%d instructions)", base.Stats.Instructions)
	}
}

// TestProfiledShapeConcurrent hammers the profile memo from many
// goroutines (run under -race in CI) with two distinct config maps: each
// key computes once, every caller of a key sees the same pointer, and
// the two keys never alias one entry.
func TestProfiledShapeConcurrent(t *testing.T) {
	profMemo.Reset()
	prog := benchprog.Halo()
	cfgs := []map[string]string{
		benchprog.HaloConfig{N: 64, Reps: 2}.Configs(),
		benchprog.HaloConfig{N: 64, Reps: 3}.Configs(),
	}
	const rounds = 4
	results := make([][]*blame.Result, len(cfgs))
	var wg sync.WaitGroup
	for i, c := range cfgs {
		results[i] = make([]*blame.Result, rounds)
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, c map[string]string) {
				defer wg.Done()
				res, err := profileProgram(prog, c)
				if err != nil {
					t.Error(err)
					return
				}
				results[i][r] = res
			}(i, r, c)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := profMemo.Len(); n != len(cfgs) {
		t.Fatalf("memo holds %d entries for %d keys", n, len(cfgs))
	}
	for i := range cfgs {
		for r := 1; r < rounds; r++ {
			if results[i][r] != results[i][0] {
				t.Fatalf("key %d: round %d saw a different *blame.Result", i, r)
			}
		}
	}
	a, b := results[0][0], results[1][0]
	if a == b {
		t.Fatal("distinct config maps aliased one cache entry")
	}
	if a.Stats.Instructions == b.Stats.Instructions {
		t.Fatalf("distinct config maps ran the same work (%d instructions)", a.Stats.Instructions)
	}
}
