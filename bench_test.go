// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (§V) under `go test -bench`. Each
// benchmark reports the reproduced quantity as a custom metric so the
// shape can be compared against the paper (EXPERIMENTS.md records one
// full run). Ablation benchmarks cover the design decisions listed in
// DESIGN.md §4.
package repro_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hpctk"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/vm"
)

func cell(b *testing.B, t *exp.Table, row string, col int) float64 {
	b.Helper()
	c, ok := t.Cell(row, col)
	if !ok {
		b.Fatalf("row %q missing", row)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", c, err)
	}
	return v
}

// BenchmarkTable1_BlameLinesExample regenerates Table I (static analysis
// of the Fig. 1 example).
func BenchmarkTable1_BlameLinesExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if got, _ := t.Cell("c", 1); got != "16,17,18,19,20" {
			b.Fatalf("c lines = %q", got)
		}
	}
}

// BenchmarkTable2_MiniMDBlame regenerates the MiniMD blame table.
func BenchmarkTable2_MiniMDBlame(b *testing.B) {
	var pos, bins float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table2()
		if err != nil {
			b.Fatal(err)
		}
		pos = cell(b, t, "Pos", 2)
		bins = cell(b, t, "Bins", 2)
	}
	b.ReportMetric(pos, "Pos_%")
	b.ReportMetric(bins, "Bins_%")
}

// BenchmarkTable3_MiniMDSpeedup regenerates the MiniMD speedup table.
func BenchmarkTable3_MiniMDSpeedup(b *testing.B) {
	var slow, fast float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table3()
		if err != nil {
			b.Fatal(err)
		}
		slow = cell(b, t, "w/o fast", 3)
		fast = cell(b, t, "w/ fast", 3)
	}
	b.ReportMetric(slow, "speedup")
	b.ReportMetric(fast, "speedup_fast")
}

// BenchmarkTable4_CLOMPBlame regenerates the CLOMP blame table.
func BenchmarkTable4_CLOMPBlame(b *testing.B) {
	var pa, rd float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table4()
		if err != nil {
			b.Fatal(err)
		}
		pa = cell(b, t, "partArray", 2)
		rd = cell(b, t, "remaining_deposit", 2)
	}
	b.ReportMetric(pa, "partArray_%")
	b.ReportMetric(rd, "remaining_deposit_%")
}

// BenchmarkTable5_CLOMPSpeedup regenerates the CLOMP size sweep.
func BenchmarkTable5_CLOMPSpeedup(b *testing.B) {
	var best, worst float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table5()
		if err != nil {
			b.Fatal(err)
		}
		best = cell(b, t, "w/o fast 12/640,000", 3)
		worst = cell(b, t, "w/o fast 65536/10", 3)
	}
	b.ReportMetric(best, "speedup_zonesDominated")
	b.ReportMetric(worst, "speedup_partsDominated")
}

// BenchmarkFig4_LULESHCodeCentric regenerates the pprof-style profile.
func BenchmarkFig4_LULESHCodeCentric(b *testing.B) {
	var schedYield float64
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		schedYield = cell(b, t, "__sched_yield", 1)
	}
	b.ReportMetric(schedYield, "sched_yield_%")
}

// BenchmarkTable6_LULESHBlame regenerates the LULESH blame table.
func BenchmarkTable6_LULESHBlame(b *testing.B) {
	var hgfx, determ, bx float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table6()
		if err != nil {
			b.Fatal(err)
		}
		hgfx = cell(b, t, "hgfx", 2)
		determ = cell(b, t, "determ", 2)
		bx = cell(b, t, "b_x", 2)
	}
	b.ReportMetric(hgfx, "hgfx_%")
	b.ReportMetric(determ, "determ_%")
	b.ReportMetric(bx, "b_x_%")
}

// BenchmarkTable7_Unrolling regenerates the param/unroll study.
func BenchmarkTable7_Unrolling(b *testing.B) {
	var p1, full float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table7()
		if err != nil {
			b.Fatal(err)
		}
		p1 = cell(b, t, "P 1", 2)
		full = cell(b, t, "P1+U2+U3", 2)
	}
	b.ReportMetric(p1, "P1_speedup")
	b.ReportMetric(full, "fullUnroll_speedup")
}

// BenchmarkTable8_BlameShift regenerates the per-optimization blame
// comparison.
func BenchmarkTable8_BlameShift(b *testing.B) {
	var cennBx float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table8()
		if err != nil {
			b.Fatal(err)
		}
		cennBx = cell(b, t, "b_x", 4)
	}
	b.ReportMetric(cennBx, "b_x_afterCENN_%")
}

// BenchmarkTable9_LULESHSpeedup regenerates the LULESH speedup table.
func BenchmarkTable9_LULESHSpeedup(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table9()
		if err != nil {
			b.Fatal(err)
		}
		best = cell(b, t, "Best Case", 2)
	}
	b.ReportMetric(best, "bestCase_speedup")
}

// BenchmarkUnknownData_Baseline regenerates the §II.B comparison.
func BenchmarkUnknownData_Baseline(b *testing.B) {
	var clomp, lulesh float64
	for i := 0; i < b.N; i++ {
		t, err := exp.UnknownData()
		if err != nil {
			b.Fatal(err)
		}
		clomp = cell(b, t, "CLOMP", 1)
		lulesh = cell(b, t, "LULESH", 1)
	}
	b.ReportMetric(clomp, "CLOMP_unknown_%")
	b.ReportMetric(lulesh, "LULESH_unknown_%")
}

// BenchmarkFig3_Views renders the three presentation views.
func BenchmarkFig3_Views(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------- overhead

// BenchmarkOverhead_StackWalk measures the Go-side cost of one stack walk
// relative to the sampling interval (paper §V: 0.051 ms walk vs 241 ms
// interval = 0.02%).
func BenchmarkOverhead_StackWalk(b *testing.B) {
	res := benchprog.LULESH(benchprog.LuleshOriginal).MustCompile(compile.Options{})
	s := sampler.New(res.Prog, 4099)
	cfg := vm.DefaultConfig()
	cfg.Listener = s
	cfg.Configs = benchprog.DefaultLulesh.Configs()
	if _, err := vm.New(res.Prog, cfg).Run(); err != nil {
		b.Fatal(err)
	}
	// Static analysis and processor construction are setup, not part of
	// the walk being measured — keep them out of the timed loop.
	an := core.Analyze(res.Prog, core.DefaultOptions())
	proc := postmortem.New(res.Prog, an, s.Spawns)
	b.ResetTimer()
	walks := 0
	var frames []core.Frame
	for i := 0; i < b.N; i++ {
		// Replay: glue every recorded sample into one reused buffer
		// (address resolution + per-frame work is the dominant post-walk
		// cost).
		for _, smp := range s.Samples {
			frames = proc.Glue(frames[:0], smp)
			walks++
		}
	}
	b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
}

// BenchmarkOverhead_PostProcessing measures post-mortem time per sample
// (paper: 16 ms/sample on its hardware).
func BenchmarkOverhead_PostProcessing(b *testing.B) {
	res := benchprog.LULESH(benchprog.LuleshOriginal).MustCompile(compile.Options{})
	s := sampler.New(res.Prog, 2053)
	cfg := vm.DefaultConfig()
	cfg.Listener = s
	cfg.Configs = benchprog.DefaultLulesh.Configs()
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	an := core.Analyze(res.Prog, core.DefaultOptions())
	proc := postmortem.New(res.Prog, an, s.Spawns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.Process(s.Samples, 2053, stats)
	}
	b.ReportMetric(float64(len(s.Samples)), "samples")
}

// BenchmarkOverhead_DatasetSize reports the raw profile dataset size
// (paper: 6-20 MB).
func BenchmarkOverhead_DatasetSize(b *testing.B) {
	var bytes int64
	for i := 0; i < b.N; i++ {
		res := benchprog.LULESH(benchprog.LuleshOriginal).MustCompile(compile.Options{})
		s := sampler.New(res.Prog, 1021)
		cfg := vm.DefaultConfig()
		cfg.Listener = s
		cfg.Configs = benchprog.DefaultLulesh.Configs()
		if _, err := vm.New(res.Prog, cfg).Run(); err != nil {
			b.Fatal(err)
		}
		bytes = s.DataSetBytes()
	}
	b.ReportMetric(float64(bytes)/1e6, "MB")
}

// ------------------------------------------------------------- ablations

func profileLULESH(b *testing.B, opts core.Options, threshold uint64) *blame.Result {
	b.Helper()
	res := benchprog.LULESH(benchprog.LuleshOriginal).MustCompile(compile.Options{})
	cfg := blame.DefaultConfig()
	cfg.Core = opts
	cfg.Threshold = threshold
	cfg.VM.Configs = benchprog.DefaultLulesh.Configs()
	r, err := blame.Profile(res.Prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblation_ImplicitTransfer compares the blame of a
// branch-guarded variable with and without control-dependence transfer
// (LULESH's hot writes are unconditional, so this ablation uses a
// guarded-write kernel where the condition input is expensive).
func BenchmarkAblation_ImplicitTransfer(b *testing.B) {
	src := `
config const n = 400;
var D: domain(1) = {0..#n};
var Hot: [D] real;
proc main() {
  for rep in 1..40 {
    forall i in D {
      var gate = sqrt(i * 1.0) * 2.5 + cbrt(i * 3.0);
      if gate > 1.0 {
        Hot[i] = 1.0;
      }
    }
  }
}
`
	res, err := compile.Source("gate.mchpl", src, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var on, off float64
	for i := 0; i < b.N; i++ {
		for _, implicit := range []bool{true, false} {
			cfg := blame.DefaultConfig()
			cfg.Threshold = 997
			cfg.Core = core.Options{ImplicitTransfer: implicit, Interprocedural: true, TrackPaths: true}
			r, err := blame.Profile(res.Prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if row, ok := r.Profile.Row("Hot"); ok {
				if implicit {
					on = row.Blame * 100
				} else {
					off = row.Blame * 100
				}
			}
		}
	}
	b.ReportMetric(on, "Hot_implicitOn_%")
	b.ReportMetric(off, "Hot_implicitOff_%")
}

// BenchmarkAblation_Interprocedural compares determ blame with and
// without transfer functions (leaf-only attribution).
func BenchmarkAblation_Interprocedural(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		o := core.DefaultOptions()
		rOn := profileLULESH(b, o, 4099)
		o.Interprocedural = false
		rOff := profileLULESH(b, o, 4099)
		if row, ok := rOn.Profile.Row("determ"); ok {
			on = row.Blame * 100
		}
		if row, ok := rOff.Profile.Row("determ"); ok {
			off = row.Blame * 100
		}
	}
	b.ReportMetric(on, "determ_interprocOn_%")
	b.ReportMetric(off, "determ_interprocOff_%")
}

// BenchmarkAblation_LineGranularity compares instruction- vs
// line-granularity attribution.
func BenchmarkAblation_LineGranularity(b *testing.B) {
	var instr, line float64
	for i := 0; i < b.N; i++ {
		o := core.DefaultOptions()
		r1 := profileLULESH(b, o, 4099)
		o.LineGranularity = true
		r2 := profileLULESH(b, o, 4099)
		if row, ok := r1.Profile.Row("hourgam"); ok {
			instr = row.Blame * 100
		}
		if row, ok := r2.Profile.Row("hourgam"); ok {
			line = row.Blame * 100
		}
	}
	b.ReportMetric(instr, "hourgam_instrGran_%")
	b.ReportMetric(line, "hourgam_lineGran_%")
}

// BenchmarkAblation_SpawnGluing shows what happens without the paper's
// pre-spawn stack gluing: worker samples lose their calling context (the
// HPCToolkit failure of §II.B).
func BenchmarkAblation_SpawnGluing(b *testing.B) {
	res := benchprog.LULESH(benchprog.LuleshOriginal).MustCompile(compile.Options{})
	s := sampler.New(res.Prog, 4099)
	cfg := vm.DefaultConfig()
	cfg.Listener = s
	cfg.Configs = benchprog.DefaultLulesh.Configs()
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	an := core.Analyze(res.Prog, core.DefaultOptions())
	var with, without float64
	for i := 0; i < b.N; i++ {
		glued := postmortem.New(res.Prog, an, s.Spawns).Process(s.Samples, 4099, stats)
		unglued := postmortem.New(res.Prog, an, nil).Process(s.Samples, 4099, stats)
		if row, ok := glued.Row("determ"); ok {
			with = row.Blame * 100
		} else {
			with = 0
		}
		if row, ok := unglued.Row("determ"); ok {
			without = row.Blame * 100
		} else {
			without = 0
		}
	}
	b.ReportMetric(with, "determ_glued_%")
	b.ReportMetric(without, "determ_unglued_%")
}

// BenchmarkAblation_SamplingThreshold sweeps the PMU threshold and
// reports blame stability (overhead/accuracy trade-off).
func BenchmarkAblation_SamplingThreshold(b *testing.B) {
	var coarse, fine float64
	for i := 0; i < b.N; i++ {
		rFine := profileLULESH(b, core.DefaultOptions(), 1021)
		rCoarse := profileLULESH(b, core.DefaultOptions(), 16381)
		if row, ok := rFine.Profile.Row("hgfx"); ok {
			fine = row.Blame * 100
		}
		if row, ok := rCoarse.Profile.Row("hgfx"); ok {
			coarse = row.Blame * 100
		}
	}
	b.ReportMetric(fine, "hgfx_fine_%")
	b.ReportMetric(coarse, "hgfx_coarse_%")
}

// BenchmarkAblation_Skid measures attribution robustness under PMU skid.
func BenchmarkAblation_Skid(b *testing.B) {
	res := benchprog.LULESH(benchprog.LuleshOriginal).MustCompile(compile.Options{})
	var precise, skewed float64
	for i := 0; i < b.N; i++ {
		for _, skid := range []int{0, 4} {
			cfg := blame.DefaultConfig()
			cfg.Threshold = 4099
			cfg.Skid = skid
			cfg.VM.Configs = benchprog.DefaultLulesh.Configs()
			r, err := blame.Profile(res.Prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if row, ok := r.Profile.Row("hgfx"); ok {
				if skid == 0 {
					precise = row.Blame * 100
				} else {
					skewed = row.Blame * 100
				}
			}
		}
	}
	b.ReportMetric(precise, "hgfx_noSkid_%")
	b.ReportMetric(skewed, "hgfx_skid4_%")
}

// BenchmarkBaselineAttribution measures the HPCToolkit-like baseline's
// processing speed over a recorded sample set.
func BenchmarkBaselineAttribution(b *testing.B) {
	res := benchprog.CLOMP(false).MustCompile(compile.Options{})
	s := sampler.New(res.Prog, 1021)
	cfg := vm.DefaultConfig()
	cfg.Listener = s
	if _, err := vm.New(res.Prog, cfg).Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hpctk.Attribute(s.Samples, s.Allocs)
	}
}
