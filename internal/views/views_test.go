package views_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/hpctk"
	"repro/internal/postmortem"
	"repro/internal/views"
)

func sampleProfile(t *testing.T, mut ...func(*blame.Config)) *blame.Result {
	t.Helper()
	res, err := compile.Source("t.mchpl", `
config const n = 200;
var D: domain(1) = {0..#n};
var Hot: [D] real;
proc kernel(i: int): real {
  var local1 = i * 2.0;
  return local1 + 1.0;
}
proc main() {
  for rep in 1..20 {
    forall i in D { Hot[i] = kernel(i); }
  }
}
`, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := blame.DefaultConfig()
	cfg.Threshold = 997
	for _, m := range mut {
		m(&cfg)
	}
	r, err := blame.Profile(res.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDataCentricRendering(t *testing.T) {
	r := sampleProfile(t)
	out := views.DataCentric(r.Profile, 10)
	if !strings.Contains(out, "Hot") {
		t.Errorf("missing Hot row:\n%s", out)
	}
	if !strings.Contains(out, "Flat data-centric view") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "[D] real") {
		t.Error("missing type column")
	}
	if !strings.Contains(out, "main") {
		t.Error("missing context column")
	}
	// Limit respected.
	lines := strings.Count(views.DataCentric(r.Profile, 2), "\n")
	if lines != 4 { // header + columns + 2 rows
		t.Errorf("limited view has %d lines", lines)
	}
}

// A sample buffer smaller than the run's samples drops the rest, and the
// data-centric view's warning line states exactly how many.
func TestPartialProfileWarningCountsDropped(t *testing.T) {
	full := sampleProfile(t)
	if strings.Contains(views.DataCentric(full.Profile, 10), "WARNING") {
		t.Error("unbounded profile warns of dropped samples")
	}
	keep := full.Profile.TotalSamples / 2
	r := sampleProfile(t, func(c *blame.Config) { c.SampleBuffer = keep })
	if r.Profile.TotalSamples != keep {
		t.Fatalf("bounded profile has %d samples, want %d", r.Profile.TotalSamples, keep)
	}
	dropped := full.Profile.TotalSamples - keep
	if r.Profile.Dropped != uint64(dropped) {
		t.Fatalf("Dropped = %d, want %d", r.Profile.Dropped, dropped)
	}
	want := "\nWARNING: partial profile — " + strconv.Itoa(dropped) + " samples dropped (sample buffer overrun)\n"
	if out := views.DataCentric(r.Profile, 10); !strings.Contains(out, want) {
		t.Errorf("view lacks %q:\n%s", want, out)
	}
}

func TestDataCentricPathPrefix(t *testing.T) {
	r := sampleProfile(t)
	out := views.DataCentric(r.Profile, 50)
	if strings.Contains(out, "Hot[") && !strings.Contains(out, "->Hot[") {
		t.Errorf("paths must carry the -> marker:\n%s", out)
	}
}

func TestCodeCentricPprofFormat(t *testing.T) {
	r := sampleProfile(t)
	out := views.CodeCentric(r.Profile, 10)
	if !strings.HasPrefix(out, "Total: ") {
		t.Errorf("pprof header missing:\n%s", out)
	}
	if !strings.Contains(out, "%") {
		t.Error("missing percent columns")
	}
	// Cumulative column is monotone nondecreasing.
	prev := -1.0
	for _, line := range strings.Split(out, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		cumPct, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64)
		if err != nil {
			continue
		}
		if cumPct < prev-0.05 {
			t.Errorf("running cumulative decreased: %s", line)
		}
		prev = cumPct
	}
}

func TestHybridGroupsByContext(t *testing.T) {
	r := sampleProfile(t)
	out := views.Hybrid(r.Profile, 5)
	if !strings.Contains(out, "blame point main") {
		t.Errorf("main blame point missing:\n%s", out)
	}
	if !strings.Contains(out, "blame point kernel") {
		t.Errorf("kernel blame point missing:\n%s", out)
	}
	// main must come first.
	if strings.Index(out, "blame point main") > strings.Index(out, "blame point kernel") {
		t.Error("main should be the first blame point")
	}
}

func TestBaselineRendering(t *testing.T) {
	r := sampleProfile(t)
	p := hpctk.Attribute(r.Sampler.Samples, r.Sampler.Allocs)
	out := views.Baseline(p, 5)
	if !strings.Contains(out, "unknown data") {
		t.Errorf("baseline view missing unknown bucket:\n%s", out)
	}
}

func TestOverheadRendering(t *testing.T) {
	r := sampleProfile(t)
	out := views.Overhead(r.Profile, r.Sampler.StackWalks, r.Sampler.DataSetBytes())
	for _, want := range []string{"samples", "stack walks", "raw dataset"} {
		if !strings.Contains(out, want) {
			t.Errorf("overhead view missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyProfileRenders(t *testing.T) {
	p := &postmortem.Profile{}
	if out := views.DataCentric(p, 5); !strings.Contains(out, "0 samples") {
		t.Errorf("empty data view: %q", out)
	}
	if out := views.CodeCentric(p, 5); !strings.Contains(out, "Total: 0") {
		t.Errorf("empty code view: %q", out)
	}
	if out := views.Hybrid(p, 5); !strings.Contains(out, "Blame points") {
		t.Errorf("empty hybrid view: %q", out)
	}
}

func TestCommCentricRendering(t *testing.T) {
	p := &postmortem.CommProfile{
		TotalMsgs:  3,
		TotalBytes: 600,
		Rows: []postmortem.CommRow{
			{Name: "Grid", Context: "main", Messages: 2, Bytes: 400, Share: 2.0 / 3},
			{Name: "Halo", Context: "main", Messages: 1, Bytes: 200, Share: 1.0 / 3},
		},
		Matrix: map[int]map[int]int64{0: {1: 400}, 1: {0: 200}},
	}
	out := views.CommCentric(p, 10)
	for _, want := range []string{"Communication blame", "Grid", "Halo", "locale 0 -> locale 1: 400 bytes", "locale 1 -> locale 0: 200 bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("comm view missing %q:\n%s", want, out)
		}
	}
	// Limit respected.
	limited := views.CommCentric(p, 1)
	if strings.Contains(limited, "Halo") {
		t.Error("limit not respected")
	}
}
