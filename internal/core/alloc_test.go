package core_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/postmortem"
)

// TestAttributeSampleAllocatesOnlyResult: once a path's level-local
// attributions are memoized, bubbling it through its callers allocates
// only the slice it returns, for every multi-level glued path a profiled
// run of lulesh and clomp takes. An Attributor that has seen the path
// attributes it again without allocating.
func TestAttributeSampleAllocatesOnlyResult(t *testing.T) {
	for _, name := range []string{"lulesh", "clomp"} {
		bp, _ := benchprog.Builtin(name)
		res := bp.MustCompile(compile.Options{})
		cfg := blame.DefaultConfig()
		cfg.Threshold = 0
		r, err := blame.Profile(res.Prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		proc := postmortem.New(res.Prog, r.Analysis, r.Sampler.Spawns)
		seen := make(map[string]bool)
		at := r.Analysis.NewAttributor()
		checked := 0
		for _, s := range r.Sampler.Samples {
			path := proc.Glue(nil, s)
			var key []byte
			for _, fr := range path {
				key = binary.AppendUvarint(key, fr.Instr.Addr)
			}
			if len(path) < 2 || seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			checked++
			r.Analysis.AttributeSample(path) // warm the memo
			if n := testing.AllocsPerRun(10, func() { r.Analysis.AttributeSample(path) }); n > 1 {
				t.Errorf("%s: a warm %d-frame path at %s allocates %.0f times, want at most 1",
					name, len(path), path[0].Fn.Name, n)
			}
			at.Attribute(path)
			if n := testing.AllocsPerRun(10, func() { at.Attribute(path) }); n > 0 {
				t.Errorf("%s: an Attributor's warm %d-frame path at %s allocates %.0f times, want 0",
					name, len(path), path[0].Fn.Name, n)
			}
		}
		t.Logf("%s: %d multi-level paths", name, checked)
		if checked == 0 {
			t.Fatalf("%s: no multi-level glued path", name)
		}
	}
}
