package blame_test

import (
	"testing"

	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/postmortem"
)

func profileSrc(t *testing.T, src string, mut ...func(*blame.Config)) *blame.Result {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := blame.DefaultConfig()
	cfg.Threshold = 997 // small prime: plenty of samples on small runs
	cfg.VM.MaxCycles = 500_000_000
	for _, m := range mut {
		m(&cfg)
	}
	out, err := blame.Profile(res.Prog, cfg)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return out
}

const hotColdSrc = `
config const n = 400;
var D: domain(1) = {0..#n};
var Hot: [D] real;
var Cold: [D] real;
proc main() {
  Cold[0] = 1.0;
  for rep in 1..40 {
    forall i in D {
      Hot[i] = Hot[i] * 0.5 + i * 1.5 + sqrt(i * 1.0);
    }
  }
}
`

func TestHotVariableRankedFirst(t *testing.T) {
	r := profileSrc(t, hotColdSrc)
	prof := r.Profile
	if prof.TotalSamples < 100 {
		t.Fatalf("too few samples: %d", prof.TotalSamples)
	}
	hot, ok := prof.Row("Hot")
	if !ok {
		t.Fatalf("Hot missing from profile: %+v", prof.DataCentric)
	}
	cold, _ := prof.Row("Cold")
	if hot.Blame < 0.5 {
		t.Errorf("Hot blame = %.2f, want > 0.5", hot.Blame)
	}
	if cold.Blame > hot.Blame/4 {
		t.Errorf("Cold blame %.2f should be far below Hot %.2f", cold.Blame, hot.Blame)
	}
	// Hot is a global: context main, type rendered over its domain.
	if hot.Context != "main" {
		t.Errorf("Hot context = %q", hot.Context)
	}
	if hot.Type != "[D] real" {
		t.Errorf("Hot type = %q", hot.Type)
	}
}

func TestWorkerSamplesGlued(t *testing.T) {
	r := profileSrc(t, hotColdSrc)
	// Most samples land in outlined bodies; their instances must include
	// a main frame after gluing.
	glued := 0
	workers := 0
	for _, inst := range r.Profile.Instances {
		if len(inst.Tags) > 0 {
			workers++
			for _, fr := range inst.Frames {
				if fr.Fn.Name == "main" {
					glued++
					break
				}
			}
		}
	}
	if workers == 0 {
		t.Fatal("no worker samples")
	}
	if glued < workers*9/10 {
		t.Errorf("only %d/%d worker samples glued to main", glued, workers)
	}
}

func TestCodeCentricViewHasOutlinedAndRuntime(t *testing.T) {
	r := profileSrc(t, hotColdSrc)
	names := map[string]bool{}
	for _, row := range r.Profile.CodeCentric {
		names[row.Name] = true
	}
	foundOutlined := false
	for n := range names {
		if len(n) > 9 && n[:9] == "forall_fn" {
			foundOutlined = true
		}
	}
	if !foundOutlined {
		t.Errorf("code-centric view missing outlined functions: %v", names)
	}
}

func TestBlameSumExceeds100Percent(t *testing.T) {
	// Paper §III: multiple variables share blame for a sample, so the
	// total percentage can exceed 100%.
	r := profileSrc(t, `
config const n = 300;
var D: domain(1) = {0..#n};
var A: [D] real;
var B: [D] real;
proc main() {
  for rep in 1..30 {
    forall i in D {
      A[i] = i * 2.0;
      B[i] = A[i] + 1.0;
    }
  }
}
`)
	var sum float64
	for _, row := range r.Profile.DataCentric {
		if !row.IsPath {
			sum += row.Blame
		}
	}
	if sum <= 1.0 {
		t.Errorf("total blame = %.2f, expected > 1.0 (inclusive blame)", sum)
	}
}

func TestSamplingThresholdControlsSampleCount(t *testing.T) {
	r1 := profileSrc(t, hotColdSrc, func(c *blame.Config) { c.Threshold = 499 })
	r2 := profileSrc(t, hotColdSrc, func(c *blame.Config) { c.Threshold = 4999 })
	if r1.Profile.TotalSamples <= r2.Profile.TotalSamples {
		t.Errorf("lower threshold should yield more samples: %d vs %d",
			r1.Profile.TotalSamples, r2.Profile.TotalSamples)
	}
	// Blame ranking should be threshold-robust.
	h1, _ := r1.Profile.Row("Hot")
	h2, _ := r2.Profile.Row("Hot")
	if h1.Blame < 0.4 || h2.Blame < 0.4 {
		t.Errorf("Hot blame unstable across thresholds: %.2f vs %.2f", h1.Blame, h2.Blame)
	}
}

func TestSkidRobustness(t *testing.T) {
	r := profileSrc(t, hotColdSrc, func(c *blame.Config) { c.Skid = 2 })
	hot, ok := r.Profile.Row("Hot")
	if !ok || hot.Blame < 0.4 {
		t.Errorf("with skid=2, Hot blame = %.2f, want still dominant", hot.Blame)
	}
}

func TestDeterministicProfile(t *testing.T) {
	r1 := profileSrc(t, hotColdSrc)
	r2 := profileSrc(t, hotColdSrc)
	if r1.Profile.TotalSamples != r2.Profile.TotalSamples {
		t.Fatalf("sample counts differ: %d vs %d", r1.Profile.TotalSamples, r2.Profile.TotalSamples)
	}
	for i := range r1.Profile.DataCentric {
		a, b := r1.Profile.DataCentric[i], r2.Profile.DataCentric[i]
		if a.Name != b.Name || a.Samples != b.Samples {
			t.Fatalf("row %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestProfilerOverheadIsObservable(t *testing.T) {
	// The monitoring process performs one stack walk per sample plus one
	// per spawn (paper §V overhead paragraph).
	r := profileSrc(t, hotColdSrc)
	if r.Sampler.StackWalks < uint64(r.Profile.TotalSamples) {
		t.Errorf("stack walks (%d) < samples (%d)", r.Sampler.StackWalks, r.Profile.TotalSamples)
	}
	if r.Sampler.DataSetBytes() == 0 {
		t.Error("no dataset size recorded")
	}
}

func TestPerLocaleProfiles(t *testing.T) {
	r := profileSrc(t, `
config const n = 100;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  for l in 0..#2 {
    on Locales[l] {
      for rep in 1..20 {
        forall i in D { A[i] = A[i] + i * 1.0; }
      }
    }
  }
}
`, func(c *blame.Config) {
		c.PerLocale = true
		c.VM.NumLocales = 2
	})
	if len(r.Profile.PerLocale) < 2 {
		t.Fatalf("per-locale profiles = %d, want 2", len(r.Profile.PerLocale))
	}
	total := 0
	for _, p := range r.Profile.PerLocale {
		total += p.TotalSamples
	}
	if total != r.Profile.TotalSamples {
		t.Errorf("per-locale samples (%d) != aggregate (%d)", total, r.Profile.TotalSamples)
	}
}

func TestLocalVariablesTracked(t *testing.T) {
	// HPCToolkit omits locals entirely (§II.B); blame must attribute
	// them — the LULESH Table VI rows are locals.
	r := profileSrc(t, `
config const n = 200;
var D: domain(1) = {0..#n};
var A: [D] real;
proc kernel(e: int): real {
  var hourmod = 0.0;
  for k in 1..8 {
    hourmod += k * 0.25 * e;
  }
  var hgf = hourmod * 2.0;
  return hgf;
}
proc main() {
  for rep in 1..20 {
    forall i in D { A[i] = kernel(i); }
  }
}
`)
	hm, ok := r.Profile.Row("hourmod")
	if !ok {
		t.Fatalf("local hourmod not attributed: %+v", r.Profile.DataCentric)
	}
	if hm.Context != "kernel" {
		t.Errorf("hourmod context = %q, want kernel", hm.Context)
	}
	if hm.Blame == 0 {
		t.Error("hourmod blame is zero")
	}
	hgf, ok := r.Profile.Row("hgf")
	if !ok || hgf.Blame < hm.Blame {
		// hgf depends on hourmod, so its blame set is a superset.
		t.Errorf("hgf (%.3f) should outrank hourmod (%.3f)", hgf.Blame, hm.Blame)
	}
}

func TestAblationImplicitOff(t *testing.T) {
	// Hot is written only under a branch whose condition is expensive to
	// compute; implicit transfer pulls the condition's work into Hot's
	// blame, so disabling it must shrink Hot's share.
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
	rOn := profileSrc(t, src)
	rOff := profileSrc(t, src, func(c *blame.Config) {
		c.Core = core.Options{ImplicitTransfer: false, Interprocedural: true, TrackPaths: true}
	})
	hOn, _ := rOn.Profile.Row("Hot")
	hOff, _ := rOff.Profile.Row("Hot")
	if hOff.Blame >= hOn.Blame {
		t.Errorf("implicit off should shrink Hot's blame: on=%.3f off=%.3f", hOn.Blame, hOff.Blame)
	}
	gOn, _ := rOn.Profile.Row("gate")
	if gOn.Blame == 0 {
		t.Error("gate (condition input) should carry blame")
	}
}

var _ = postmortem.Profile{}
