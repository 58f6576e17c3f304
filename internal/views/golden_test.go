package views_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/views"
)

// TestCommCentricGoldenWavefront locks the communication-blame view for
// the wavefront example at 4 locales under owner-computes scheduling and
// the modeled aggregation runtime. The golden pins the PR's acceptance
// criterion in rendered form: the Scheduling line must report 0
// owner-site violations. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/views -run TestCommCentricGoldenWavefront
func TestCommCentricGoldenWavefront(t *testing.T) {
	const golden = "testdata/wavefront_comm_4loc.golden"

	src, err := os.ReadFile("../../examples/multilocale/wavefront.mchpl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Source("wavefront.mchpl", string(src), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cfg := blame.DefaultConfig()
	cfg.Threshold = 6089 // pin explicitly: golden must not drift with calibration
	cfg.VM = (&serve.Request{Locales: 4, CommAggregate: true}).VMConfig(res.Prog)
	cfg.VM.MaxCycles = 3_000_000_000
	var stdout strings.Builder
	cfg.VM.Stdout = &stdout

	r, err := blame.Profile(res.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := views.CommCentric(r.CommBlame(), 0)

	if !strings.Contains(got, "0 owner-site violations") {
		t.Errorf("comm view does not report 0 owner-site violations:\n%s", got)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("comm-centric view for wavefront changed.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
