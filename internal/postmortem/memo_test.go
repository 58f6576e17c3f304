package postmortem_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/sem"
)

// TestProcessMatchesPerSampleAttribution pins Process's grouping by
// calling context: for every built-in at 1, 2 and 4 locales, the
// data-centric rows and the code-centric rows (runtime-spin samples
// included) equal references that glue and attribute each sample on its
// own, and processing the samples in a shuffled order yields the same
// profile bytes, per-locale profiles included.
func TestProcessMatchesPerSampleAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spins := 0
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
			samples := r.Sampler.Samples
			proc := postmortem.New(res.Prog, r.Analysis, r.Sampler.Spawns)
			got := rowStrings(r.Profile.DataCentric)
			want := referenceRows(proc, r, samples)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s at %d locales: Process rows\n%v\nper-sample reference\n%v", bp.Name, locales, got, want)
			}
			gotFns := funcRowStrings(r.Profile.CodeCentric)
			wantFns := referenceFuncRows(proc, res.Prog, samples)
			if fmt.Sprint(gotFns) != fmt.Sprint(wantFns) {
				t.Errorf("%s at %d locales: Process code-centric rows\n%v\nper-sample reference\n%v", bp.Name, locales, gotFns, wantFns)
			}
			for _, s := range samples {
				if s.RuntimeFunc != "" {
					spins++
				}
			}

			shuffled := slices.Clone(samples)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			th := r.Profile.Threshold
			if a, b := profileJSON(t, proc.Process(samples, th, r.Stats)), profileJSON(t, proc.Process(shuffled, th, r.Stats)); a != b {
				t.Errorf("%s at %d locales: shuffled samples change the profile:\n%s\nvs\n%s", bp.Name, locales, a, b)
			}
			if a, b := profileJSON(t, proc.ProcessPerLocale(samples, th, r.Stats)), profileJSON(t, proc.ProcessPerLocale(shuffled, th, r.Stats)); a != b {
				t.Errorf("%s at %d locales: shuffled samples change the per-locale profile:\n%s\nvs\n%s", bp.Name, locales, a, b)
			}
		}
	}
	if spins == 0 {
		t.Error("no runtime-spin sample: the code-centric check covers user code only")
	}
}

// profileJSON returns p's JSON encoding.
func profileJSON(t *testing.T, p *postmortem.Profile) string {
	t.Helper()
	var b strings.Builder
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// referenceFuncRows counts the code-centric view one sample at a time
// into "name|flat|cum" rows, sorted: flat for the sample's innermost
// function (its runtime function for a spin sample), cum for each
// distinct function on its glued path and for its runtime function.
func referenceFuncRows(proc *postmortem.Processor, prog *ir.Program, samples []sampler.RawSample) []string {
	flat := map[string]int{}
	cum := map[string]int{}
	for _, s := range samples {
		innermost := s.RuntimeFunc
		if innermost == "" {
			if in := prog.InstrAt(s.Addr); in != nil {
				innermost = in.Block.Func.Name
			}
		}
		if innermost != "" {
			flat[innermost]++
		}
		fns := map[string]bool{}
		for _, fr := range proc.Glue(nil, s) {
			fns[fr.Fn.Name] = true
		}
		if s.RuntimeFunc != "" {
			fns[s.RuntimeFunc] = true
		}
		for name := range fns {
			cum[name]++
		}
	}
	var out []string
	for name, n := range cum {
		out = append(out, fmt.Sprintf("%s|%d|%d", name, flat[name], n))
	}
	sort.Strings(out)
	return out
}

// funcRowStrings renders rows like referenceFuncRows, sorted.
func funcRowStrings(rows []postmortem.FuncRow) []string {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s|%d|%d", r.Name, r.Flat, r.Cum))
	}
	sort.Strings(out)
	return out
}

// referenceRows aggregates one AttributeSample call per sample into
// "name|context|type|path|samples" rows, sorted. Like Process, it keys a
// variable row by symbol and a path row by path. A path row's context
// and type come from its first sample here; Process labels a path that
// several roots share by the root declared first, which on every
// built-in is the root of the path's first sample.
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
