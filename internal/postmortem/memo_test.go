package postmortem_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/sem"
)

// TestProcessMatchesPerSampleAttribution pins Process's per-path memo:
// for every built-in at 1, 2 and 4 locales, the data-centric rows equal
// a reference that calls AttributeSample once per sample.
func TestProcessMatchesPerSampleAttribution(t *testing.T) {
	for _, bp := range benchprog.All() {
		res := bp.MustCompile(compile.Options{})
		for _, locales := range []int{1, 2, 4} {
			cfg := blame.DefaultConfig()
			cfg.Threshold = 0
			cfg.VM.NumLocales = locales
			r, err := blame.Profile(res.Prog, cfg)
			if err != nil {
				t.Fatalf("%s at %d locales: %v", bp.Name, locales, err)
			}
			got := rowStrings(r.Profile.DataCentric)
			want := referenceRows(postmortem.New(res.Prog, r.Analysis, r.Sampler.Spawns), r, r.Sampler.Samples)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s at %d locales: Process rows\n%v\nper-sample reference\n%v", bp.Name, locales, got, want)
			}
		}
	}
}

// referenceRows aggregates one AttributeSample call per sample into
// "name|context|type|path|samples" rows, sorted. Like Process, it keys a
// variable row by symbol and a path row by path, whose context and type
// come from its first sample.
func referenceRows(proc *postmortem.Processor, r *blame.Result, samples []sampler.RawSample) []string {
	type row struct {
		name, ctx, typ string
		path           bool
		n              int
	}
	vars := map[*sem.Symbol]*row{}
	paths := map[string]*row{}
	for _, s := range samples {
		for _, b := range r.Analysis.AttributeSample(proc.Glue(nil, s)) {
			if b.Path != "" {
				if paths[b.Path] == nil {
					ctx, typ := "main", ""
					if b.Root.Sym != nil {
						ctx = b.Root.Sym.Context()
					}
					if b.Root.Type != nil {
						typ = b.Root.Type.String()
					}
					paths[b.Path] = &row{b.Path, ctx, typ, true, 0}
				}
				paths[b.Path].n++
				continue
			}
			if vars[b.Sym] == nil {
				typ := ""
				if b.Sym.Type != nil {
					typ = b.Sym.Type.String()
				}
				vars[b.Sym] = &row{b.Sym.Name, b.Sym.Context(), typ, false, 0}
			}
			vars[b.Sym].n++
		}
	}
	var out []string
	for _, k := range vars {
		out = append(out, fmt.Sprintf("%s|%s|%s|%v|%d", k.name, k.ctx, k.typ, k.path, k.n))
	}
	for _, k := range paths {
		out = append(out, fmt.Sprintf("%s|%s|%s|%v|%d", k.name, k.ctx, k.typ, k.path, k.n))
	}
	sort.Strings(out)
	return out
}

// rowStrings renders rows like referenceRows, sorted.
func rowStrings(rows []postmortem.VarRow) []string {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s|%s|%s|%v|%d", r.Name, r.Context, r.Type, r.IsPath, r.Samples))
	}
	sort.Strings(out)
	return out
}

// TestRepeatedPathsCostOnlyGluing: attribution and the path's function
// set are memoized per distinct path, and every sample is glued into one
// reused buffer, so processing every sample twice allocates no more than
// processing them once (give or take AllocsPerRun's rounding and the
// buffer's growth past its first sizes). Each count is the least of
// three measurements: a garbage collection overlapping one adds the
// runtime's own allocations, and such noise only adds.
func TestRepeatedPathsCostOnlyGluing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are exact only without -race")
	}
	for _, bp := range benchprog.All() {
		res := bp.MustCompile(compile.Options{})
		cfg := blame.DefaultConfig()
		cfg.Threshold = 0
		r, err := blame.Profile(res.Prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samples := r.Sampler.Samples
		proc := postmortem.New(res.Prog, r.Analysis, r.Sampler.Spawns)
		twice := append(append([]sampler.RawSample(nil), samples...), samples...)
		allocs := func(s []sampler.RawSample) float64 {
			return testing.AllocsPerRun(3, func() { proc.Process(s, r.Profile.Threshold, r.Stats) })
		}
		once := min(allocs(samples), allocs(samples), allocs(samples))
		double := min(allocs(twice), allocs(twice), allocs(twice))
		t.Logf("%s %d samples: Process %.0f allocs, twice %.0f", bp.Name, len(samples), once, double)
		if double-once > 2 {
			t.Errorf("repeated samples allocate %.0f beyond one pass, want at most 2", double-once)
		}
	}
}
