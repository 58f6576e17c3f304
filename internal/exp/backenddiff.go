package exp

import (
	"encoding/json"
	"fmt"

	"repro/gobert"
	"repro/internal/benchprog"
	"repro/internal/comm"
	"repro/internal/compile"
	"repro/internal/gobe"
	"repro/internal/serve"
	"repro/internal/vm"
)

// This file is the backend-differential harness behind `paperbench
// -diffbe`: every benchmark × 1/2/4 locales × the four comm modes ×
// fault injection, each run on the interpreter and the native-compiled
// Go backend, pinning bit-identical program output, identical stats
// (including comm message counts) and identical blame profiles. Any
// nonzero diff count fails the experiment.

// diffWorkload is one benchmark at its harness problem size (small
// enough that the full matrix stays fast, large enough that every
// runtime subsystem is exercised).
type diffWorkload struct {
	prog benchprog.Program
	cfgs map[string]string
}

func diffWorkloads() []diffWorkload {
	return []diffWorkload{
		{benchprog.Halo(), benchprog.HaloConfig{N: 256, Reps: 4}.Configs()},
		{benchprog.Wavefront(), benchprog.DefaultWavefront.Configs()},
		{benchprog.CLOMP(false), benchprog.CLOMPConfig{NumParts: 8, ZonesPerPart: 16, FlopScale: 1, TimeScale: 1}.Configs()},
		{benchprog.MiniMD(false), benchprog.DefaultMiniMD.Configs()},
		{benchprog.LULESH(benchprog.LuleshOriginal), benchprog.LuleshConfig{NumElems: 24, NSteps: 2}.Configs()},
		{benchprog.Gather(), benchprog.GatherConfig{N: 256, Reps: 3}.Configs()},
		{benchprog.SpMV(), benchprog.SpMVConfig{N: 64, NnzPerRow: 4, Reps: 3}.Configs()},
	}
}

// commModes are the four communication configurations of the harness:
// the direct runtime, the aggregation runtime with its software cache,
// the aggregation runtime with the cache disabled, and the aggregation
// runtime with the inspector–executor path on top.
type commMode struct {
	name      string
	agg       bool
	cacheCap  int
	inspector bool
}

func commModes4() []commMode {
	return []commMode{
		{"direct", false, 0, false},
		{"agg", true, comm.DefaultCacheCap, false},
		{"agg/nocache", true, -1, false},
		{"agg/inspector", true, comm.DefaultCacheCap, true},
	}
}

// diffFaultSpec is the deterministic fault schedule every workload also
// runs under (at 2 locales, where comm faults have something to hit).
const diffFaultSpec = "loss=0.01,dup=0.005,delay=0.1:3xCommLatency"

// TableBackendDiff runs the full differential matrix and renders one
// row per cell. The diffs column must be 0 everywhere; the experiment
// errors out on the first divergence so CI fails loudly.
func TableBackendDiff() (*Table, error) {
	t := &Table{
		ID:     "diffbe",
		Title:  "backend differential — interpreter vs native-compiled Go backend (diffs must be 0)",
		Header: []string{"workload", "locales", "comm", "fault", "diffs", "comm msgs", "interp ms", "go ms", "speedup"},
	}
	for _, w := range diffWorkloads() {
		for _, locales := range []int{1, 2, 4} {
			for _, m := range commModes4() {
				spec := &gobert.RunSpec{Mode: "run", MaxCycles: 20_000_000_000, Request: &serve.Request{
					Cores: 4, Locales: locales, Configs: w.cfgs,
					CommAggregate: m.agg, CommCache: m.cacheCap, CommInspector: m.inspector,
				}}
				row, err := diffRunRow(w, spec, m.name, "none")
				if err != nil {
					return nil, fmt.Errorf("%s locales=%d comm=%s: %w", w.prog.Name, locales, m.name, err)
				}
				t.Rows = append(t.Rows, row)
			}
		}
		// Fault injection: deterministic schedule, 2 locales, direct comm.
		spec := &gobert.RunSpec{Mode: "run", MaxCycles: 20_000_000_000, Request: &serve.Request{
			Cores: 4, Locales: 2, Configs: w.cfgs, FaultSpec: diffFaultSpec, FaultSeed: 7,
		}}
		row, err := diffRunRow(w, spec, "direct", "loss+dup+delay")
		if err != nil {
			return nil, fmt.Errorf("%s fault: %w", w.prog.Name, err)
		}
		t.Rows = append(t.Rows, row)

		// Blame profile agreement: the full serve pipeline (sampling,
		// post-mortem attribution, rendered views) must come back byte
		// identical — which subsumes blame-percentage and rank agreement.
		row, err = diffOutcomeRow(w)
		if err != nil {
			return nil, fmt.Errorf("%s blame: %w", w.prog.Name, err)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"diffs compares program output, stats JSON (incl. comm message counts), outcome and profile bytes",
		"blame rows run the full profiling pipeline on both backends and compare the rendered profile byte-for-byte",
	)
	return t, nil
}

// diffRunRow executes one run-mode cell on both backends.
func diffRunRow(w diffWorkload, spec *gobert.RunSpec, commName, faultName string) ([]string, error) {
	interp, compiled, err := gobe.RunBoth(w.prog.Name+".mchpl", w.prog.Source, compile.Options{}, spec)
	if err != nil {
		return nil, err
	}
	diffs := gobe.Diff(interp, compiled)
	if len(diffs) > 0 {
		return nil, fmt.Errorf("backends diverged:\n%s", diffs[0])
	}
	var st vm.Stats
	if interp.Stats != nil {
		if err := json.Unmarshal(interp.Stats, &st); err != nil {
			return nil, err
		}
	}
	return []string{
		w.prog.Name, fmt.Sprint(spec.Request.Locales), commName, faultName,
		fmt.Sprint(len(diffs)), fmt.Sprint(st.CommMessages),
		fmt.Sprintf("%.1f", float64(interp.WallNs)/1e6),
		fmt.Sprintf("%.1f", float64(compiled.WallNs)/1e6),
		fmt.Sprintf("%.2fx", float64(interp.WallNs)/float64(max(1, uint64(compiled.WallNs)))),
	}, nil
}

// diffOutcomeRow executes the serve pipeline (blame profiling) on both
// backends and compares the full outcome envelope.
func diffOutcomeRow(w diffWorkload) ([]string, error) {
	req := &serve.Request{
		Source: w.prog.Source, Name: w.prog.Name + ".mchpl",
		Configs: w.cfgs, Cores: 4, Locales: 1, View: "data", Limit: 10,
	}
	spec := &gobert.RunSpec{Mode: "outcome", Request: req}
	interp, compiled, err := gobe.RunBoth(w.prog.Name+".mchpl", w.prog.Source, compile.Options{}, spec)
	if err != nil {
		return nil, err
	}
	diffs := gobe.Diff(interp, compiled)
	if len(diffs) > 0 {
		return nil, fmt.Errorf("blame outcomes diverged:\n%s", diffs[0])
	}
	return []string{
		w.prog.Name, "1", "direct", "none (blame)",
		fmt.Sprint(len(diffs)), "-",
		fmt.Sprintf("%.1f", float64(interp.WallNs)/1e6),
		fmt.Sprintf("%.1f", float64(compiled.WallNs)/1e6),
		fmt.Sprintf("%.2fx", float64(interp.WallNs)/float64(max(1, uint64(compiled.WallNs)))),
	}, nil
}

// BackendSpeedup is one Table VII-class workload timed on both backends
// (the BENCH_PR8.json material).
type BackendSpeedup struct {
	Name      string  `json:"name"`
	InterpMs  float64 `json:"interp_ms"`
	GoMs      float64 `json:"go_ms"`
	SpeedupX  float64 `json:"speedup_x"`
	Identical bool    `json:"identical"`
}

// BackendSpeedups times the Table VII hourglass-kernel variants (the
// Fig. 5 loop nest the paper's unrolling study measures) on both
// backends at a compute-dominated problem size, verifying bit-identical
// results while measuring wall clock.
func BackendSpeedups() ([]BackendSpeedup, error) {
	variants := []benchprog.LuleshVariant{
		benchprog.LuleshOriginal,
		{P1: true},
		{P1: true, U2: true},
		{P1: true, U2: true, U3: true},
	}
	cfgs := map[string]string{"numElems": "3000", "nSteps": "8"}
	var out []BackendSpeedup
	for _, v := range variants {
		p := benchprog.LULESHKernel(v)
		spec := &gobert.RunSpec{Mode: "run", MaxCycles: 200_000_000_000, Request: &serve.Request{Cores: 4, Locales: 1, Configs: cfgs}}
		interp, compiled, err := gobe.RunBoth(p.Name+".mchpl", p.Source, compile.Options{}, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		diffs := gobe.Diff(interp, compiled)
		out = append(out, BackendSpeedup{
			Name:      p.Name,
			InterpMs:  float64(interp.WallNs) / 1e6,
			GoMs:      float64(compiled.WallNs) / 1e6,
			SpeedupX:  float64(interp.WallNs) / float64(max(1, uint64(compiled.WallNs))),
			Identical: len(diffs) == 0,
		})
	}
	return out, nil
}
