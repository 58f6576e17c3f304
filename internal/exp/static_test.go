package exp

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyze/cost"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/views"
)

// TestStaticAccuracyGates pins the ISSUE 6 acceptance criteria: on the
// affine comm benchmarks the predicted message count must land within
// 10% of the measured comm.Stats (it is currently exact), and the
// predicted top-3 blame variables must match the dynamic top-3 (ties
// within blameTieEps of rank 3 accepted) on at least 4 of the 5
// benchmarks. The known miss is halo's rank-3 domain variable D, whose
// dynamic blame is idle-spin attribution the static engine does not
// model (DESIGN.md, "Static cost model").
func TestStaticAccuracyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full accuracy study")
	}
	scores, err := StaticScores()
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for _, s := range scores {
		t.Logf("%s: msgs pred=%d meas=%d err=%.3f top3 pred=%v meas=%v match=%v rho=%.2f (n=%d) walk=%v",
			s.Name, s.PredMsgs, s.MeasMsgs, s.MsgErr, s.PredTop, s.MeasTop, s.Top3Match, s.Rho, s.Shared, s.WalkOK)
		if !math.IsNaN(s.MsgErr) && s.MsgErr > 0.10 {
			t.Errorf("%s: comm prediction off by %.1f%% (gate: 10%%): pred %d vs meas %d",
				s.Name, s.MsgErr*100, s.PredMsgs, s.MeasMsgs)
		}
		if s.Top3Match {
			matches++
		}
		if !math.IsNaN(s.Rho) && s.Rho <= 0 {
			t.Errorf("%s: rank correlation %.2f not positive over %d shared vars", s.Name, s.Rho, s.Shared)
		}
	}
	if matches < 4 {
		t.Errorf("top-3 blame matched on %d/%d benchmarks, gate requires >= 4", matches, len(scores))
	}
	// The affine benchmarks must both be checked (a silently skipped comm
	// gate would pass vacuously).
	checked := 0
	for _, s := range scores {
		if !math.IsNaN(s.MsgErr) {
			checked++
		}
	}
	if checked < 2 {
		t.Errorf("comm gate covered %d benchmarks, want >= 2 (halo, wavefront)", checked)
	}
}

// TestStaticPredictionDeterministic pins `blame -static` output: the
// rendered prediction must be byte-identical across repeated runs and
// independent of driver parallelism (-j): concurrent predictions of the
// same program from multiple goroutines must all render the same bytes.
func TestStaticPredictionDeterministic(t *testing.T) {
	res, err := benchprog.Halo().Compile(compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		opts := cost.DefaultOptions()
		opts.VM = (&serve.Request{Configs: benchprog.DefaultHalo.Configs(), Locales: 4, CommAggregate: true}).VMConfig(res.Prog)
		return views.Predicted(cost.Predict(res.Prog, opts), 20)
	}
	want := render()
	if !strings.Contains(want, "Grid") {
		t.Fatalf("rendered prediction does not mention Grid:\n%s", want)
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != want {
			t.Fatalf("serial run %d differs:\n--- want\n%s\n--- got\n%s", i, want, got)
		}
	}
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = render()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("concurrent run %d differs:\n--- want\n%s\n--- got\n%s", i, want, g)
		}
	}
}
