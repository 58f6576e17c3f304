package vm_test

import (
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/analyze"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/vm"
)

// TestValueFitsOneCacheLine pins Value's layout: every array element,
// frame slot and default template is one Value, so its size is what
// the interpreter copies and zeroes and the garbage collector scans.
func TestValueFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(vm.Value{}); n > 64 {
		t.Errorf("unsafe.Sizeof(vm.Value{}) = %d bytes, want at most 64 (one cache line)", n)
	}
}

// TestDistributeCopyLeavesOriginal: a copied domain shares its payload
// with the original, so marking the copy Block-distributed must build a
// new payload rather than write through the shared one.
func TestDistributeCopyLeavesOriginal(t *testing.T) {
	res, err := compile.Source("t.mchpl", `
var D: domain(1) = {0..#8};
var E: domain(1) dmapped Block = D;
var A: [D] real;
var B: [E] real;
proc main() { writeln(D, " ", E); }
`, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.NumLocales = 2
	m := vm.New(res.Prog, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	g := map[string]*vm.Value{}
	for _, v := range res.Prog.Globals {
		g[v.Name] = &m.Globals()[v.Slot]
	}
	if d, e := g["D"].Dom(), g["E"].Dom(); d.Dist || !e.Dist {
		t.Errorf("after distributing the copy E: D.Dist = %v, E.Dist = %v; want false, true", d.Dist, e.Dist)
	}
	if a, b := g["A"].Arr(), g["B"].Arr(); a.DistBlock || !b.DistBlock {
		t.Errorf("A over D distributed = %v, B over E = %v; want false, true", a.DistBlock, b.DistBlock)
	}
}

// TestRemoteHitAllocatesNothing: a Block-distributed remote access,
// cache and replica hits included, allocates nothing per read. gather
// at 4 locales with the inspector: doubling n doubles the remote reads,
// while the run's other allocations (tasks, frames, arrays, the
// inspector's per-task index sets) do not scale with them. One
// allocation per read, as a closure escaping per access made, would
// add thousands.
func TestRemoteHitAllocatesNothing(t *testing.T) {
	res := benchprog.Gather().MustCompile(compile.Options{})
	run := func(n int) (allocs float64, reads int64) {
		cfg := vm.DefaultConfig()
		cfg.NumLocales = 4
		cfg.CommAggregate = true
		cfg.CommInspector = true
		cfg.CommPlan = analyze.CommPlan(res.Prog)
		cfg.Configs = map[string]string{"n": strconv.Itoa(n), "reps": "4"}
		var st vm.Stats
		allocs = minAllocsPerRun(3, 2, func() {
			var err error
			if st, err = vm.New(res.Prog, cfg).Run(); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, st.Agg.Hits + st.Agg.Misses
	}
	small, rs := run(2048)
	large, rl := run(4096)
	t.Logf("n=2048: %.0f allocs, %d remote reads; n=4096: %.0f allocs, %d remote reads", small, rs, large, rl)
	if rl < rs+rs/2 {
		t.Fatalf("remote reads %d -> %d: the larger run must read remotely more", rs, rl)
	}
	if grow := large - small; grow > float64(rl-rs)/16 {
		t.Errorf("%d more remote reads cost %.0f more allocations, want at most one per 16 reads", rl-rs, grow)
	}
}
