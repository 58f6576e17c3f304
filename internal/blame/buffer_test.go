package blame_test

import (
	"testing"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/sampler"
	"repro/internal/vm"
)

// TestSampleBufferNeverRegrows: a calibrated profile sizes its sample
// buffer from the calibration run, so on every built-in at 1, 2 and 4
// locales the buffer the run starts with is the one it ends with. fig1,
// which the calibrated threshold never samples, gets no buffer.
func TestSampleBufferNeverRegrows(t *testing.T) {
	for _, bp := range benchprog.All() {
		res := bp.MustCompile(compile.Options{})
		for _, locales := range []int{1, 2, 4} {
			cfg := blame.DefaultConfig()
			cfg.Threshold = 0
			cfg.VM.NumLocales = locales
			initial := -1
			cfg.Wrap = func(smp *sampler.Sampler, _ *core.Analysis) vm.Listener {
				initial = cap(smp.Samples)
				return smp
			}
			r, err := blame.Profile(res.Prog, cfg)
			if err != nil {
				t.Fatalf("%s at %d locales: %v", bp.Name, locales, err)
			}
			n, final := len(r.Sampler.Samples), cap(r.Sampler.Samples)
			if final != initial {
				t.Errorf("%s at %d locales: %d samples regrew the buffer from cap %d to %d", bp.Name, locales, n, initial, final)
			}
			if bp.Name == "fig1" && initial != 0 {
				t.Errorf("fig1 at %d locales: buffer of cap %d for %d samples", locales, initial, n)
			}
		}
	}
}

// TestExplicitThresholdKeepsGrowingBuffer: only a calibrated run knows
// how many samples to expect; an explicit threshold starts empty.
func TestExplicitThresholdKeepsGrowingBuffer(t *testing.T) {
	r := profileSrc(t, hotColdSrc, func(c *blame.Config) {
		c.Wrap = func(smp *sampler.Sampler, _ *core.Analysis) vm.Listener {
			if cap(smp.Samples) != 0 {
				t.Errorf("explicit threshold: buffer presized to %d", cap(smp.Samples))
			}
			return smp
		}
	})
	if r.Profile.TotalSamples == 0 {
		t.Fatal("no samples")
	}
}

// cobeginSrc is the two-body cobegin whose bodies each accumulate into
// their own variable.
const cobeginSrc = `
proc main() { var x = 0; var y = 0;
  cobegin { for i in 1..200000 { x = x + i; }  for j in 1..200000 { y = y + j; } }
  writeln(x + y); }
`

// TestCobeginBlamesEachBodysOwnVariable: at a cobegin spawn a sample
// blames what its own body writes, and only that. Before per-body
// transfer both accumulators read about 83% each, since every body's
// samples credited both.
func TestCobeginBlamesEachBodysOwnVariable(t *testing.T) {
	r := profileSrc(t, cobeginSrc, func(c *blame.Config) {
		c.Threshold = 0
	})
	prof := r.Profile
	x, okx := prof.Row("x")
	y, oky := prof.Row("y")
	if !okx || !oky {
		t.Fatalf("x or y missing: %+v", prof.DataCentric)
	}
	t.Logf("%d samples: x %.1f%%, y %.1f%%", prof.TotalSamples, 100*x.Blame, 100*y.Blame)
	for _, row := range []struct {
		name  string
		blame float64
	}{{"x", x.Blame}, {"y", y.Blame}} {
		if row.blame < 0.35 || row.blame > 0.5 {
			t.Errorf("%s blame %.1f%%, want its body's share (35-50%%)", row.name, 100*row.blame)
		}
	}
	if x.Samples+y.Samples > prof.TotalSamples {
		t.Errorf("x (%d) and y (%d) share samples of %d", x.Samples, y.Samples, prof.TotalSamples)
	}
}
