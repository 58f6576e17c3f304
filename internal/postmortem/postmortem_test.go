package postmortem_test

import (
	"bytes"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/vm"
)

// buildRun compiles src and runs it under a sampler, returning everything
// post-mortem processing needs.
func buildRun(t *testing.T, src string, threshold uint64) (*compile.Result, *sampler.Sampler, vm.Stats) {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sampler.New(res.Prog, threshold)
	cfg := vm.DefaultConfig()
	cfg.Listener = s
	cfg.MaxCycles = 200_000_000
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, s, stats
}

const gluSrc = `
config const n = 120;
var D: domain(1) = {0..#n};
var A: [D] real;
proc inner(i: int): real {
  return i * 2.0 + 1.0;
}
proc outer() {
  forall i in D { A[i] = inner(i); }
}
proc main() {
  for rep in 1..15 { outer(); }
}
`

func TestGlueProducesFullPaths(t *testing.T) {
	res, s, _ := buildRun(t, gluSrc, 503)
	an := core.Analyze(res.Prog, core.DefaultOptions())
	proc := postmortem.New(res.Prog, an, s.Spawns)
	sawDeep := false
	var frames []core.Frame
	for _, smp := range s.Samples {
		if smp.Tag == 0 {
			continue
		}
		// Worker samples: glued path must end in main (through outer).
		frames = proc.Glue(frames[:0], smp)
		names := map[string]bool{}
		for _, fr := range frames {
			names[fr.Fn.Name] = true
		}
		if names["inner"] && names["outer"] && names["main"] {
			sawDeep = true
		}
		if len(frames) > 0 && !names["main"] {
			t.Fatalf("worker sample not glued to main: %v", names)
		}
	}
	if !sawDeep {
		t.Error("no fully glued inner→outer→main path observed")
	}
}

func TestGlueTrimsRuntimeFrames(t *testing.T) {
	res, s, _ := buildRun(t, gluSrc, 503)
	an := core.Analyze(res.Prog, core.DefaultOptions())
	proc := postmortem.New(res.Prog, an, s.Spawns)
	var frames []core.Frame
	for _, smp := range s.Samples {
		frames = proc.Glue(frames[:0], smp)
		for _, fr := range frames {
			if fr.Fn.IsRuntime {
				t.Fatalf("runtime frame %s not trimmed", fr.Fn.Name)
			}
		}
	}
}

func TestSpinSamplesResolveToSpawnSite(t *testing.T) {
	res, s, stats := buildRun(t, gluSrc, 503)
	_ = stats
	an := core.Analyze(res.Prog, core.DefaultOptions())
	proc := postmortem.New(res.Prog, an, s.Spawns)
	resolved := 0
	spin := 0
	for _, smp := range s.Samples {
		if smp.RuntimeFunc == "" {
			continue
		}
		spin++
		if len(proc.Glue(nil, smp)) > 0 {
			resolved++
		}
	}
	if spin == 0 {
		t.Skip("no runtime samples in this run")
	}
	if resolved < spin/2 {
		t.Errorf("only %d/%d runtime samples resolved to user code", resolved, spin)
	}
}

func TestProcessTotals(t *testing.T) {
	res, s, stats := buildRun(t, gluSrc, 503)
	an := core.Analyze(res.Prog, core.DefaultOptions())
	prof := postmortem.New(res.Prog, an, s.Spawns).Process(s.Samples, 503, stats)
	if prof.TotalSamples != len(s.Samples) {
		t.Errorf("TotalSamples %d != %d", prof.TotalSamples, len(s.Samples))
	}
	// Blame fractions are Samples/Total.
	for _, r := range prof.DataCentric {
		want := float64(r.Samples) / float64(prof.TotalSamples)
		if r.Blame != want {
			t.Errorf("%s blame %.4f != %.4f", r.Name, r.Blame, want)
		}
	}
	// Code-centric flat sums to total.
	flatSum := 0
	for _, r := range prof.CodeCentric {
		flatSum += r.Flat
	}
	if flatSum != prof.TotalSamples {
		t.Errorf("flat sum %d != total %d", flatSum, prof.TotalSamples)
	}
}

func TestRowsSortedByBlame(t *testing.T) {
	res, s, stats := buildRun(t, gluSrc, 503)
	an := core.Analyze(res.Prog, core.DefaultOptions())
	prof := postmortem.New(res.Prog, an, s.Spawns).Process(s.Samples, 503, stats)
	for i := 1; i < len(prof.DataCentric); i++ {
		if prof.DataCentric[i].Samples > prof.DataCentric[i-1].Samples {
			t.Fatal("data-centric rows not sorted")
		}
	}
	for i := 1; i < len(prof.CodeCentric); i++ {
		if prof.CodeCentric[i].Flat > prof.CodeCentric[i-1].Flat {
			t.Fatal("code-centric rows not sorted")
		}
	}
}

func TestRowLookup(t *testing.T) {
	res, s, stats := buildRun(t, gluSrc, 503)
	an := core.Analyze(res.Prog, core.DefaultOptions())
	prof := postmortem.New(res.Prog, an, s.Spawns).Process(s.Samples, 503, stats)
	if _, ok := prof.Row("A"); !ok {
		t.Error("Row(A) not found")
	}
	if _, ok := prof.Row("no_such_var"); ok {
		t.Error("Row should miss unknown names")
	}
}

func TestEmptyProcess(t *testing.T) {
	res, _, stats := buildRun(t, gluSrc, 1<<40)
	an := core.Analyze(res.Prog, core.DefaultOptions())
	prof := postmortem.New(res.Prog, an, nil).Process(nil, 1<<40, stats)
	if prof.TotalSamples != 0 || len(prof.DataCentric) != 0 {
		t.Errorf("empty profile: %+v", prof)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	res, s, stats := buildRun(t, gluSrc, 503)
	an := core.Analyze(res.Prog, core.DefaultOptions())
	prof := postmortem.New(res.Prog, an, s.Spawns).Process(s.Samples, 503, stats)

	var buf bytes.Buffer
	if err := prof.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := postmortem.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalSamples != prof.TotalSamples || back.Threshold != prof.Threshold {
		t.Error("header fields lost")
	}
	if len(back.DataCentric) != len(prof.DataCentric) {
		t.Fatalf("row count: %d vs %d", len(back.DataCentric), len(prof.DataCentric))
	}
	for i := range prof.DataCentric {
		a, b := prof.DataCentric[i], back.DataCentric[i]
		if a.Name != b.Name || a.Samples != b.Samples || a.Blame != b.Blame ||
			a.Type != b.Type || a.Context != b.Context || a.IsPath != b.IsPath {
			t.Errorf("row %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(back.CodeCentric) != len(prof.CodeCentric) {
		t.Error("code-centric rows lost")
	}
	if back.Stats.TotalCycles != prof.Stats.TotalCycles {
		t.Error("stats lost")
	}
}

func TestCommBlameAggregation(t *testing.T) {
	v := &ir.Var{Name: "Grid"}
	recs := []sampler.CommRecord{
		{Bytes: 100, From: 0, To: 1, Var: v},
		{Bytes: 200, From: 0, To: 2, Var: v},
		{Bytes: 300, From: 1, To: 0, Var: nil},
	}
	p := postmortem.CommBlame(recs)
	if p.TotalBytes != 600 || p.TotalMsgs != 3 {
		t.Errorf("totals: %+v", p)
	}
	if p.Rows[0].Name != "Grid" && p.Rows[0].Name != "(anonymous)" {
		t.Errorf("rows: %+v", p.Rows)
	}
	var grid postmortem.CommRow
	for _, r := range p.Rows {
		if r.Name == "Grid" {
			grid = r
		}
	}
	if grid.Bytes != 300 || grid.Messages != 2 || grid.Share != 0.5 {
		t.Errorf("Grid row: %+v", grid)
	}
	if p.Matrix[0][1] != 100 || p.Matrix[0][2] != 200 || p.Matrix[1][0] != 300 {
		t.Errorf("matrix: %+v", p.Matrix)
	}
}
