package exp

import (
	"fmt"
	"strings"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/vm"
)

// chaosSeed fixes the fault schedule: the injector is deterministic, so
// the table is identical on every run.
const chaosSeed = 42

// TableChaos is the robustness study: the halo-exchange stencil at 4
// locales under the modeled aggregation runtime, re-run under a set of
// deterministic fault specs. Output must stay bit-identical to the
// fault-free run for every spec (the comm model retransmits lost
// messages and falls back when a locale fails); what moves is the fault
// counters and the modeled wall time.
func TableChaos() (*Table, error) {
	prog := benchprog.Halo()
	cfgs := benchprog.HaloConfig{N: 512, Reps: 6}.Configs()
	res, err := prog.Compile(compile.Options{})
	if err != nil {
		return nil, err
	}

	run := func(spec string) (vm.Stats, string, error) {
		var out strings.Builder
		req := serve.Request{Configs: cfgs, Locales: 4, CommAggregate: true, FaultSpec: spec, FaultSeed: chaosSeed}
		cfg := req.VMConfig(res.Prog)
		cfg.Stdout = &out
		cfg.Fault = req.Injector()
		stats, err := vm.New(res.Prog, cfg).Run()
		if err != nil {
			return vm.Stats{}, "", err
		}
		return stats, out.String(), nil
	}

	base, baseOut, err := run("")
	if err != nil {
		return nil, err
	}

	specs := []string{
		"loss=0.05",
		"loss=0.02,dup=0.02,delay=0.2:3xCommLatency",
		"locale-slow=2:4x",
		"locale-fail=3@tick50",
	}
	t := &Table{
		ID:     "Table Chaos",
		Title:  fmt.Sprintf("Halo under injected faults (4 locales, seed %d)", chaosSeed),
		Header: []string{"Fault spec", "Msgs", "Retries", "Timeouts", "Fallbacks", "Slowdown", "Output identical"},
	}
	t.Rows = append(t.Rows, []string{
		"(none)", fmt.Sprint(base.CommMessages), "0", "0", "0", "1.00", "true",
	})
	for _, spec := range specs {
		stats, out, err := run(spec)
		if err != nil {
			return nil, err
		}
		f := stats.Fault
		if f == nil {
			return nil, fmt.Errorf("chaos: no fault stats for spec %q", spec)
		}
		slow := "-"
		if base.WallCycles > 0 {
			slow = fmt.Sprintf("%.2f", float64(stats.WallCycles)/float64(base.WallCycles))
		}
		t.Rows = append(t.Rows, []string{
			spec, fmt.Sprint(stats.CommMessages),
			fmt.Sprint(f.Retries), fmt.Sprint(f.Timeouts), fmt.Sprint(f.FailedLocaleFallbacks),
			slow, fmt.Sprint(out == baseOut),
		})
	}
	t.Notes = append(t.Notes,
		"every spec must print bit-identical program output: faults change only cycles and counters",
		"loss is retransmitted with bounded exponential backoff; a failed locale degrades to spawn-locale execution",
	)
	return t, nil
}
