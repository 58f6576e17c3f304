// Package blame is the top-level profiler API — the reproduction of the
// paper's tool (BForChapel). It wires the four pipeline steps together:
//
//  1. static analysis        (internal/core)
//  2. execution w/ sampling  (internal/vm + internal/sampler)
//  3. post-mortem processing (internal/postmortem)
//  4. presentation           (internal/views)
//
// Typical use:
//
//	res, _ := compile.Source("prog.mchpl", src, compile.Options{})
//	prof, _ := blame.Profile(res.Prog, blame.DefaultConfig())
//	fmt.Print(views.DataCentric(prof, 10))
package blame

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/vm"
)

// Config parameterizes a profiling run.
type Config struct {
	// VM configures the runtime (cores, locales, config consts, stdout).
	VM vm.Config
	// Threshold is the PMU overflow threshold in cycles. The paper uses
	// the large prime 608,888,809 on multi-second runs; scale it to the
	// simulated workload so a run yields a few thousand samples. 0 means
	// calibrate: Profile derives it from an unmonitored run (see
	// calibrate).
	Threshold uint64
	// Core selects the analysis options (ablation knobs).
	Core core.Options
	// Skid injects PMU interrupt skid of n instructions (0 = precise).
	Skid int
	// PerLocale additionally builds per-locale profiles.
	PerLocale bool
	// SampleBuffer bounds the monitor's sample ring buffer (0 =
	// unbounded): overruns drop samples, surfaced as Profile.Dropped.
	SampleBuffer int
	// Wrap, when non-nil, wraps the sampling listener immediately before
	// the profiled run, after any calibration. The serving layer
	// (internal/serve) interposes a progress monitor here that streams
	// sampler progress and incremental blame ranks without touching the
	// pipeline itself. The wrapper must
	// delegate every callback to the sampler or the profile will be
	// incomplete.
	Wrap func(smp *sampler.Sampler, analysis *core.Analysis) vm.Listener
}

// DefaultConfig returns the paper-equivalent configuration with a
// threshold scaled for simulated workloads.
func DefaultConfig() Config {
	return Config{
		VM:        vm.DefaultConfig(),
		Threshold: 6089,
		Core:      core.DefaultOptions(),
	}
}

// Result bundles everything a profiling run produces.
type Result struct {
	Profile  *postmortem.Profile
	Analysis *core.Analysis
	Sampler  *sampler.Sampler
	Stats    vm.Stats
}

// CommBlame returns the communication-blame profile for multi-locale
// runs (paper §VI: "blame communication cost back to key data
// structures"). When the run modeled the aggregation runtime, its
// statistics ride along.
func (r *Result) CommBlame() *postmortem.CommProfile {
	p := postmortem.CommBlame(r.Sampler.Comms)
	p.Agg = r.Stats.Agg
	p.OwnerChunks = r.Stats.OwnerChunks
	p.RemoteSpawns = r.Stats.RemoteSpawns
	p.OwnerSiteRemote = r.Stats.OwnerSiteRemote
	p.Scheduled = true
	return p
}

// Profile runs the full pipeline on a compiled program. It is the one
// profiling sequence: calibrate (when cfg.Threshold is 0), analyze, run
// under the sampler, post-process.
func Profile(prog *ir.Program, cfg Config) (*Result, error) {
	expected := 0 // samples the run should take; known only when calibrated
	if cfg.Threshold == 0 {
		th, n, err := calibrate(prog, cfg.VM)
		if err != nil {
			return nil, err
		}
		cfg.Threshold, expected = th, n
	}
	// Step 1: static analysis (pre-run). Memoized: the analysis is a pure
	// function of (program, options) and immutable once built, so repeated
	// profiles of the same program share it.
	analysis := core.AnalyzeCached(prog, cfg.Core)

	// Step 2: execution under the monitoring process.
	var opts []sampler.Option
	if cfg.Skid > 0 {
		opts = append(opts, sampler.WithSkid(cfg.Skid))
	}
	if cfg.SampleBuffer > 0 {
		opts = append(opts, sampler.WithRingBuffer(cfg.SampleBuffer))
	}
	smp := sampler.New(prog, cfg.Threshold, opts...)
	if n := expected + expected/16; n > 0 {
		// Size the sample buffer once: a fault-free profiled run counts
		// at most the calibration run's cycles, and the 1/16 slack covers
		// latency injected faults add (past it, append grows the
		// buffer). A bounded ring never needs more than its bound.
		if cfg.SampleBuffer > 0 {
			n = min(n, cfg.SampleBuffer)
		}
		smp.Samples = make([]sampler.RawSample, 0, n)
	}
	vmCfg := cfg.VM
	vmCfg.Listener = smp
	if cfg.Wrap != nil {
		vmCfg.Listener = cfg.Wrap(smp, analysis)
	}
	stats, err := vm.New(prog, vmCfg).Run()
	if err != nil {
		return nil, err
	}

	// Step 3: post-mortem processing.
	proc := postmortem.New(prog, analysis, smp.Spawns)
	var prof *postmortem.Profile
	if cfg.PerLocale {
		prof = proc.ProcessPerLocale(smp.Samples, cfg.Threshold, stats)
	} else {
		prof = proc.Process(smp.Samples, cfg.Threshold, stats)
	}
	prof.Dropped += smp.Dropped
	return &Result{Profile: prof, Analysis: analysis, Sampler: smp, Stats: stats}, nil
}
