package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/analyze"
	"repro/internal/analyze/cost"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hpctk"
	"repro/internal/ir"
	"repro/internal/sampler"
	"repro/internal/views"
	"repro/internal/vm"
)

// Event is one streaming progress record of a profiling session.
type Event struct {
	Type    string    `json:"type"` // phase | progress | ranks | done
	Phase   string    `json:"phase,omitempty"`
	Samples int       `json:"samples,omitempty"`
	Cycles  uint64    `json:"cycles,omitempty"`
	Ranks   []RankRow `json:"ranks,omitempty"`
	Session string    `json:"session,omitempty"`
	State   string    `json:"state,omitempty"`
	Err     string    `json:"error,omitempty"`
}

// RankRow is one entry of an incremental data-centric blame ranking,
// computed mid-run from the samples observed so far.
type RankRow struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	Blame   float64 `json:"blame"`
}

// RunControl carries the scheduler's hooks into one pipeline execution.
// All fields are optional; Execute(req, nil) runs uncontrolled, exactly
// like the CLI.
type RunControl struct {
	// Cancel aborts the run at the next VM scheduling quantum once set.
	Cancel *atomic.Bool
	// Emit receives streaming events. It is called from the pipeline
	// goroutine and must not block.
	Emit func(Event)
	// RankEvery is the sample interval between incremental blame-rank
	// snapshots (0 = default 2000).
	RankEvery int
}

func (c *RunControl) emit(ev Event) {
	if c != nil && c.Emit != nil {
		c.Emit(ev)
	}
}

func (c *RunControl) cancelled() bool {
	return c != nil && c.Cancel != nil && c.Cancel.Load()
}

// Outcome is everything one profiling request produces. For a given
// normalized Request it is deterministic down to the byte (the VM is a
// fixed-scheduler simulator), which is what makes whole outcomes
// content-addressable in the server cache.
type Outcome struct {
	// Text is exactly what cmd/blame prints to stdout for the equivalent
	// flag set.
	Text string `json:"text"`
	// ProfileJSON is the stable profile serialization
	// (postmortem.Profile.WriteJSON); nil for the execution-free views
	// (static, lint-json).
	ProfileJSON []byte `json:"-"`
	// Output is the profiled program's own stdout (writeln output). The
	// CLI discards it; the server keeps it so chaos studies can pin that
	// faults never change program output.
	Output string `json:"output,omitempty"`
	// Stats are the run's VM statistics (zero for execution-free views).
	Stats vm.Stats `json:"stats"`
	// Threshold is the PMU threshold used (after auto-scaling).
	Threshold uint64 `json:"threshold,omitempty"`
	// Samples is the profile's sample count.
	Samples int `json:"samples,omitempty"`
}

// sizeBytes approximates the outcome's memory footprint for cache
// accounting.
func (o *Outcome) sizeBytes() int64 {
	return int64(len(o.Text) + len(o.ProfileJSON) + len(o.Output) + 512)
}

// Profile is the profiling sequence Execute and the experiment harness
// share. With cfg.Threshold 0 it first calibrates: one unmonitored run,
// then a threshold of TotalCycles/4001 (at least 101, forced odd), which
// targets a few thousand samples where the paper's fixed large prime
// assumes multi-second wall times. The calibration is memoized per
// (program, run shape), so the views of one run pay for it once. Only
// then is inj attached, so the calibration draws nothing from the fault
// PRNG and the profiled run's fault schedule does not depend on whether
// a threshold was given or the calibration came from the memo.
// started, when non-nil, is called right before the profiled run.
func Profile(prog *ir.Program, cfg *blame.Config, inj *fault.Injector, started func()) (*blame.Result, error) {
	if cfg.Threshold == 0 {
		st, err := Unmonitored(prog, cfg.VM)
		if err != nil {
			return nil, err
		}
		th := st.TotalCycles / 4001
		if th < 101 {
			th = 101
		}
		cfg.Threshold = th | 1 // odd, in the spirit of the paper's prime
	}
	cfg.VM.Fault = inj
	if started != nil {
		started()
	}
	return blame.Profile(prog, *cfg)
}

// Execute runs one normalized request through the full pipeline and
// renders it. cmd/blame calls this with ctl == nil; the server calls it
// from scheduler workers with cancellation, deadline and streaming
// hooks attached. The logic — calibration before the fault injector is
// armed, the view switch, per-locale rendering — matches the historical
// CLI behaviour exactly, which is what the HTTP-vs-CLI golden test
// pins.
func Execute(req *Request, ctl *RunControl) (*Outcome, error) {
	if req.View == "" { // allow callers that skipped Normalize
		if err := req.Normalize(); err != nil {
			return nil, err
		}
	}
	if ctl.cancelled() {
		return nil, errors.New(vm.ErrCancelled)
	}
	lim := req.Limit
	if lim < 0 {
		lim = 0 // -1 in the schema means unlimited; the views use 0 for that
	}

	ctl.emit(Event{Type: "phase", Phase: "compile"})
	res, err := compile.SourceCached(req.Name, req.Source, compile.Options{})
	if err != nil {
		return nil, err
	}

	if req.View == "lint-json" {
		ctl.emit(Event{Type: "phase", Phase: "analyze"})
		var buf bytes.Buffer
		if err := analyze.Run(res.Prog).WriteJSON(&buf); err != nil {
			return nil, err
		}
		return &Outcome{Text: buf.String()}, nil
	}

	var progOut bytes.Buffer
	cfg := blame.DefaultConfig()
	cfg.VM = req.VMConfig(res.Prog)
	cfg.VM.Stdout = &progOut
	cfg.Skid = req.Skid
	cfg.PerLocale = req.PerLocale
	cfg.Core = core.Options{
		ImplicitTransfer: !req.NoImplicit,
		Interprocedural:  !req.NoInterproc,
		LineGranularity:  req.Lines,
		TrackPaths:       true,
	}
	if ctl != nil {
		cfg.VM.Cancel = ctl.Cancel
	}

	if req.View == "static" {
		// Predict without executing anything: no calibration run, no
		// profiled run.
		ctl.emit(Event{Type: "phase", Phase: "predict"})
		opts := cost.DefaultOptions()
		opts.VM = cfg.VM
		opts.Core = cfg.Core
		pred := cost.Predict(res.Prog, opts)
		text := views.Predicted(pred, lim)
		if req.Lint {
			text += "\n" + analyze.Run(res.Prog).Text()
		}
		return &Outcome{Text: text}, nil
	}

	cfg.Threshold = req.Threshold
	if cfg.Threshold == 0 {
		ctl.emit(Event{Type: "phase", Phase: "calibrate"})
	}
	cfg.SampleBuffer = req.SampleBuffer
	if ctl != nil && (ctl.Emit != nil) {
		rankEvery := ctl.RankEvery
		if rankEvery <= 0 {
			rankEvery = 2000
		}
		emit := ctl.Emit
		cfg.Wrap = func(smp *sampler.Sampler, analysis *core.Analysis) vm.Listener {
			// Profile has settled cfg.Threshold by the time it wraps.
			return newMonitor(res.Prog, analysis, smp, cfg.Threshold, rankEvery, emit)
		}
	}

	r, err := Profile(res.Prog, &cfg, req.Injector(), func() {
		ctl.emit(Event{Type: "phase", Phase: "run"})
	})
	if err != nil {
		return nil, err
	}
	prof := r.Profile
	ctl.emit(Event{Type: "phase", Phase: "render", Samples: prof.TotalSamples, Cycles: r.Stats.TotalCycles})

	var text strings.Builder
	if req.Lint {
		rep := analyze.Run(res.Prog)
		text.WriteString(rep.Text())
		text.WriteString("\n")
		opts := cost.DefaultOptions()
		opts.VM = cfg.VM
		opts.Core = cfg.Core
		text.WriteString(views.Advisor(prof, rep, cost.Predict(res.Prog, opts), lim))
	} else {
		switch req.View {
		case "data":
			text.WriteString(views.DataCentric(prof, lim))
		case "code":
			text.WriteString(views.CodeCentric(prof, lim))
		case "hybrid":
			text.WriteString(views.Hybrid(prof, lim))
		case "baseline":
			text.WriteString(views.Baseline(hpctk.Attribute(r.Sampler.Samples, r.Sampler.Allocs), lim))
		case "comm":
			text.WriteString(views.CommCentric(r.CommBlame(), lim))
		case "all":
			text.WriteString(views.DataCentric(prof, lim))
			text.WriteString("\n")
			text.WriteString(views.CodeCentric(prof, lim))
			text.WriteString("\n")
			text.WriteString(views.Hybrid(prof, lim))
			text.WriteString("\n")
			text.WriteString(views.Baseline(hpctk.Attribute(r.Sampler.Samples, r.Sampler.Allocs), lim))
			text.WriteString("\n")
			text.WriteString(views.Overhead(prof, r.Sampler.StackWalks, r.Sampler.DataSetBytes()))
		}
	}
	if !req.Lint && req.PerLocale && prof.PerLocale != nil {
		// Locale order is pinned (the CLI historically ranged over the
		// map): deterministic bytes are what make outcomes cacheable.
		locs := make([]int, 0, len(prof.PerLocale))
		for loc := range prof.PerLocale {
			locs = append(locs, loc)
		}
		sort.Ints(locs)
		for _, loc := range locs {
			fmt.Fprintf(&text, "\n--- locale %d ---\n", loc)
			text.WriteString(views.DataCentric(prof.PerLocale[loc], lim))
		}
	}

	var profJSON bytes.Buffer
	if err := prof.WriteJSON(&profJSON); err != nil {
		return nil, err
	}
	return &Outcome{
		Text:        text.String(),
		ProfileJSON: profJSON.Bytes(),
		Output:      progOut.String(),
		Stats:       r.Stats,
		Threshold:   cfg.Threshold,
		Samples:     prof.TotalSamples,
	}, nil
}
