package benchprog_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/vm"
)

func runProgram(t *testing.T, p benchprog.Program, fast bool, cfgs map[string]string) (string, vm.Stats) {
	t.Helper()
	res, err := p.Compile(compile.Options{Fast: fast})
	if err != nil {
		t.Fatalf("%s: compile: %v", p.Name, err)
	}
	var out strings.Builder
	cfg := vm.DefaultConfig()
	cfg.Stdout = &out
	cfg.Configs = cfgs
	cfg.MaxCycles = 3_000_000_000
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		t.Fatalf("%s: run: %v", p.Name, err)
	}
	return out.String(), stats
}

func TestAllProgramsCompileAndRun(t *testing.T) {
	for _, p := range benchprog.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			out, stats := runProgram(t, p, false, nil)
			if stats.WallCycles == 0 {
				t.Error("no cycles")
			}
			switch p.Name {
			case "fig1":
			case "halo", "wavefront":
				if out != "sum positive: true\n" {
					t.Errorf("unexpected output: %q", out)
				}
			default:
				if !strings.Contains(out, "ok") && !strings.Contains(out, "checksum") {
					t.Errorf("unexpected output: %q", out)
				}
			}
		})
	}
}

func TestAllProgramsCompileAndRunFast(t *testing.T) {
	for _, p := range benchprog.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			out, _ := runProgram(t, p, true, nil)
			_ = out
		})
	}
}

func TestFig1Output(t *testing.T) {
	out, _ := runProgram(t, benchprog.Program{Name: "fig1", Source: benchprog.Fig1Example}, false, nil)
	if out != "7\n" {
		t.Errorf("fig1 output = %q, want 7", out)
	}
}

func TestMiniMDVariantsAgree(t *testing.T) {
	// Original and optimized must compute the same physics. The checksum
	// line is identical; compare full output.
	o1, _ := runProgram(t, benchprog.MiniMD(false), false, nil)
	o2, _ := runProgram(t, benchprog.MiniMD(true), false, nil)
	if o1 != o2 {
		t.Errorf("MiniMD outputs differ:\n%q\n%q", o1, o2)
	}
}

func TestCLOMPVariantsAgree(t *testing.T) {
	o1, _ := runProgram(t, benchprog.CLOMP(false), false, nil)
	o2, _ := runProgram(t, benchprog.CLOMP(true), false, nil)
	if o1 != o2 {
		t.Errorf("CLOMP outputs differ:\n%q\n%q", o1, o2)
	}
}

func TestLULESHVariantsAgree(t *testing.T) {
	base, _ := runProgram(t, benchprog.LULESH(benchprog.LuleshOriginal), false, nil)
	for _, v := range []benchprog.LuleshVariant{
		{},
		{P1: true},
		{P1: true, U2: true},
		{P1: true, U2: true, U3: true},
		benchprog.LuleshBest,
	} {
		out, _ := runProgram(t, benchprog.LULESH(v), false, nil)
		if out != base {
			t.Errorf("LULESH %s output differs:\n%q\n%q", v.Tag(), out, base)
		}
	}
}

func TestMiniMDOptimizedIsFaster(t *testing.T) {
	_, s1 := runProgram(t, benchprog.MiniMD(false), false, nil)
	_, s2 := runProgram(t, benchprog.MiniMD(true), false, nil)
	speedup := float64(s1.WallCycles) / float64(s2.WallCycles)
	t.Logf("MiniMD speedup: %.2f", speedup)
	if speedup < 1.3 {
		t.Errorf("MiniMD optimization speedup %.2f, want >= 1.3 (paper: 2.26)", speedup)
	}
}

func TestCLOMPOptimizedIsFaster(t *testing.T) {
	cfg := benchprog.CLOMPSizePoints[2] // 12 parts / many zones: best case
	_, s1 := runProgram(t, benchprog.CLOMP(false), false, cfg.Configs())
	_, s2 := runProgram(t, benchprog.CLOMP(true), false, cfg.Configs())
	speedup := float64(s1.WallCycles) / float64(s2.WallCycles)
	t.Logf("CLOMP speedup: %.2f", speedup)
	if speedup < 1.3 {
		t.Errorf("CLOMP flat-array speedup %.2f, want >= 1.3 (paper: 2.13)", speedup)
	}
}

func TestLULESHBestIsFaster(t *testing.T) {
	_, s1 := runProgram(t, benchprog.LULESH(benchprog.LuleshOriginal), false, nil)
	_, s2 := runProgram(t, benchprog.LULESH(benchprog.LuleshBest), false, nil)
	speedup := float64(s1.WallCycles) / float64(s2.WallCycles)
	t.Logf("LULESH best-case speedup: %.2f", speedup)
	if speedup < 1.15 {
		t.Errorf("LULESH best speedup %.2f, want >= 1.15 (paper: 1.38)", speedup)
	}
}

func TestLuleshVariantTags(t *testing.T) {
	cases := map[string]benchprog.LuleshVariant{
		"0 params":   {},
		"P1":         {P1: true},
		"P1+P2+P3":   benchprog.LuleshOriginal,
		"P1+U2":      {P1: true, U2: true},
		"P1+U2+U3":   {P1: true, U2: true, U3: true},
		"P1+VG+CENN": benchprog.LuleshBest,
	}
	for want, v := range cases {
		if got := v.Tag(); got != want {
			t.Errorf("Tag(%+v) = %q, want %q", v, got, want)
		}
	}
}

func TestLULESHSourceVariantsDiffer(t *testing.T) {
	orig := benchprog.LULESHSource(benchprog.LuleshOriginal)
	noParams := benchprog.LULESHSource(benchprog.LuleshVariant{})
	if orig == noParams {
		t.Error("param removal did not change the source")
	}
	// The Fig. 5 nest has 3 variant positions; all other param loops are
	// fixed across variants.
	if d := strings.Count(orig, "for param") - strings.Count(noParams, "for param"); d != 3 {
		t.Errorf("param-loop count delta = %d, want 3", d)
	}
	u2 := benchprog.LULESHSource(benchprog.LuleshVariant{P1: true, U2: true})
	if !strings.Contains(u2, "x8n0[e](8) * gamma[i, 8]") {
		t.Error("U2 variant not manually unrolled")
	}
	vg := benchprog.LULESHSource(benchprog.LuleshVariant{P1: true, VG: true})
	if !strings.Contains(vg, "// VG: hoisted locals") {
		t.Error("VG variant missing hoisted globals")
	}
}

// The embedded halo benchmark must stay byte-identical to the example
// file the README walks through.
func TestHaloSourceMatchesExample(t *testing.T) {
	b, err := os.ReadFile("../../examples/multilocale/halo.mchpl")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != benchprog.HaloSource {
		t.Error("internal/benchprog/halo.go and examples/multilocale/halo.mchpl diverged")
	}
}

// Likewise for the embedded wavefront benchmark.
func TestWavefrontSourceMatchesExample(t *testing.T) {
	b, err := os.ReadFile("../../examples/multilocale/wavefront.mchpl")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != benchprog.WavefrontSource {
		t.Error("internal/benchprog/wavefront.go and examples/multilocale/wavefront.mchpl diverged")
	}
}

// runHalo executes the halo benchmark at 4 locales with or without the
// modeled aggregation runtime.
func runHalo(t *testing.T, aggregate, ownerComputes bool) (string, vm.Stats) {
	t.Helper()
	res, err := benchprog.Halo().Compile(compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	cfg := vm.DefaultConfig()
	cfg.Stdout = &out
	cfg.Configs = benchprog.DefaultHalo.Configs()
	cfg.NumLocales = 4
	cfg.MaxCycles = 3_000_000_000
	cfg.CommAggregate = aggregate
	cfg.NoOwnerComputes = !ownerComputes
	cfg.CommPlan = analyze.CommPlan(res.Prog)
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), stats
}

// TestHaloAggregationSmoke is the CI benchmark smoke for the modeled
// communication runtime: on the spawn-locale baseline (owner-computes
// off) -comm-aggregate must send at least 10x fewer messages while
// printing bit-identical output.
func TestHaloAggregationSmoke(t *testing.T) {
	direct, ds := runHalo(t, false, false)
	agg, as := runHalo(t, true, false)
	if direct != agg {
		t.Fatalf("aggregation changed program output:\n direct: %q\n agg:    %q", direct, agg)
	}
	if !strings.Contains(direct, "sum positive: true") {
		t.Errorf("unexpected halo output: %q", direct)
	}
	if ds.CommMessages == 0 || as.CommMessages == 0 {
		t.Fatalf("no communication recorded: direct=%d agg=%d", ds.CommMessages, as.CommMessages)
	}
	reduction := float64(ds.CommMessages) / float64(as.CommMessages)
	t.Logf("halo messages: %d direct, %d aggregated (%.1fx)", ds.CommMessages, as.CommMessages, reduction)
	if reduction < 10 {
		t.Errorf("aggregation reduced messages only %.1fx (%d -> %d), want >= 10x",
			reduction, ds.CommMessages, as.CommMessages)
	}
	if as.Agg == nil {
		t.Fatal("aggregated run carries no comm runtime stats")
	}
	if as.Agg.Hits == 0 {
		t.Error("aggregated run recorded no cache hits")
	}
}

// TestHaloOwnerComputesSmoke is the CI benchmark smoke for owner-computes
// forall scheduling: the halo benchmark at 4 locales with owner-computes +
// aggregation must beat the spawn-locale aggregation baseline (71
// messages when this smoke was pinned), produce the same output, and
// leave every statically owner-computes site communication-free.
func TestHaloOwnerComputesSmoke(t *testing.T) {
	// The ceiling: what PR 2's aggregation achieved with every forall
	// chunk pinned to the spawning locale.
	const baselineCeiling = 71

	base, bs := runHalo(t, true, false)
	own, os := runHalo(t, true, true)
	if base != own {
		t.Fatalf("owner-computes scheduling changed program output:\n baseline: %q\n owner:    %q", base, own)
	}
	t.Logf("halo messages: %d baseline (agg), %d owner-computes (agg); owner-site violations: %d baseline, %d owner",
		bs.CommMessages, os.CommMessages, bs.OwnerSiteRemote, os.OwnerSiteRemote)
	if bs.CommMessages > baselineCeiling {
		t.Errorf("spawn-locale aggregation baseline regressed: %d messages, ceiling %d", bs.CommMessages, baselineCeiling)
	}
	if os.CommMessages >= bs.CommMessages {
		t.Errorf("owner-computes (%d msgs) should beat the spawn-locale baseline (%d msgs)",
			os.CommMessages, bs.CommMessages)
	}
	if os.OwnerSiteRemote != 0 {
		t.Errorf("owner-computes run still made %d remote accesses at statically owner-computes sites, want 0",
			os.OwnerSiteRemote)
	}
	if os.OwnerChunks == 0 || os.RemoteSpawns == 0 {
		t.Errorf("owner-computes run spawned no distributed chunks (owner=%d remote=%d)",
			os.OwnerChunks, os.RemoteSpawns)
	}
	if bs.OwnerSiteRemote == 0 {
		t.Error("spawn-locale baseline should record owner-site violations (that is what it pays for)")
	}
}

func TestCLOMPScalesWithConfig(t *testing.T) {
	small := benchprog.CLOMPConfig{NumParts: 4, ZonesPerPart: 8, FlopScale: 1, TimeScale: 1}
	big := benchprog.CLOMPConfig{NumParts: 16, ZonesPerPart: 64, FlopScale: 1, TimeScale: 1}
	_, s1 := runProgram(t, benchprog.CLOMP(false), false, small.Configs())
	_, s2 := runProgram(t, benchprog.CLOMP(false), false, big.Configs())
	if s2.WallCycles <= s1.WallCycles {
		t.Errorf("bigger problem not slower: %d vs %d", s2.WallCycles, s1.WallCycles)
	}
}
