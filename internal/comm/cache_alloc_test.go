package comm_test

import (
	"strconv"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/vm"
)

// TestCacheInsertAllocsBounded: the software cache keeps its entries in
// a slab and reuses an evicted entry's slot, so inserting an element
// allocates nothing once the slab has grown. gather at 4 locales with
// aggregation but no inspector: doubling n doubles the cache inserts
// (one per miss), while the run's other allocations do not grow with
// them. One allocation per insert, as an entry and a list element per
// insert made, would add thousands. Each count is the least of three
// measurements: a garbage collection overlapping one adds the runtime's
// own allocations, and such noise only adds.
func TestCacheInsertAllocsBounded(t *testing.T) {
	res := benchprog.Gather().MustCompile(compile.Options{})
	run := func(n int) (allocs float64, inserts int64) {
		cfg := vm.DefaultConfig()
		cfg.NumLocales = 4
		cfg.CommAggregate = true
		cfg.Configs = map[string]string{"n": strconv.Itoa(n), "reps": "1"}
		var st vm.Stats
		f := func() {
			var err error
			if st, err = vm.New(res.Prog, cfg).Run(); err != nil {
				t.Fatal(err)
			}
		}
		allocs = min(testing.AllocsPerRun(2, f), testing.AllocsPerRun(2, f), testing.AllocsPerRun(2, f))
		return allocs, st.Agg.Misses
	}
	small, is := run(2048)
	large, il := run(4096)
	t.Logf("n=2048: %.0f allocs, %d inserts; n=4096: %.0f allocs, %d inserts", small, is, large, il)
	if il < is+is/2 {
		t.Fatalf("cache inserts %d -> %d: the larger run must insert more", is, il)
	}
	if grow := large - small; grow > float64(il-is)/16 {
		t.Errorf("%d more cache inserts cost %.0f more allocations, want at most one per 16 inserts", il-is, grow)
	}
}
