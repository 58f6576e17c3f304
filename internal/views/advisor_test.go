package views_test

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/analyze/cost"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/views"
)

// TestAdvisorJoinsStaticAndDynamic runs the full -lint pipeline on the
// multilocale halo example: profile dynamically, analyze statically, and
// check that the advisor joins the fine-grained-remote findings for Grid
// with Grid's dynamic blame rank.
func TestAdvisorJoinsStaticAndDynamic(t *testing.T) {
	src, err := os.ReadFile("../../examples/multilocale/halo.mchpl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Source("halo.mchpl", string(src), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cfg := blame.DefaultConfig()
	cfg.VM = (&serve.Request{Locales: 4, Cores: 4}).VMConfig(res.Prog)
	cfg.Threshold = 2003
	r, err := blame.Profile(res.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rep := analyze.Run(res.Prog)
	opts := cost.DefaultOptions()
	opts.VM = cfg.VM
	pred := cost.Predict(res.Prog, opts)
	out := views.Advisor(r.Profile, rep, pred, 10)

	if !strings.Contains(out, "Grid") {
		t.Errorf("advisor does not mention Grid:\n%s", out)
	}
	if !strings.Contains(out, "[predicted #") {
		t.Errorf("advisor rows carry no predicted-vs-measured column:\n%s", out)
	}
	if !strings.Contains(out, "fine-grained remote") {
		t.Errorf("advisor does not surface a remote finding:\n%s", out)
	}
	if !strings.Contains(out, "% blame") {
		t.Errorf("advisor rows carry no blame percentage:\n%s", out)
	}
	if !strings.Contains(out, "#1") {
		t.Errorf("advisor rows carry no rank:\n%s", out)
	}
	if !strings.Contains(out, "fix:") {
		t.Errorf("advisor omits fix hints:\n%s", out)
	}
	// The per-forall communication summaries have no variable to join on
	// and must fall through to the unranked section, not vanish.
	if !strings.Contains(out, "unranked static findings") {
		t.Errorf("advisor dropped variable-less findings:\n%s", out)
	}
}

// A program with no static findings yields a well-formed, explicit
// "nothing to report" advisor rather than an empty string.
func TestAdvisorNoFindings(t *testing.T) {
	const src = `
proc main() {
  var x = 1;
  writeln(x);
}
`
	res, err := compile.Source("tiny.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := blame.DefaultConfig()
	cfg.VM.Stdout = io.Discard
	cfg.Threshold = 101
	r, err := blame.Profile(res.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := views.Advisor(r.Profile, analyze.Run(res.Prog), nil, 10)
	if !strings.Contains(out, "no static finding names a profiled variable") {
		t.Errorf("empty advisor not explicit:\n%s", out)
	}
}
