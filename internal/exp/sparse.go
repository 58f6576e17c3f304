package exp

import (
	"fmt"
	"strings"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/vm"
)

// TableSparse regenerates the inspector–executor study: the two
// irregular-access workloads (A[B[i]] gather/scatter and CSR SpMV) at 4
// locales, measured once under the aggregation runtime alone and once
// with the inspector–executor path on top (-comm-inspector). Output
// must be bit-identical — the inspector is cost-model-only — and the
// message reduction on these sparse workloads is the headline number
// (the smoke test pins >= 5x; EXPERIMENTS.md quotes this table).
func TableSparse() (*Table, error) {
	cases := []struct {
		prog benchprog.Program
		cfgs map[string]string
	}{
		{benchprog.Gather(), benchprog.DefaultGather.Configs()},
		{benchprog.SpMV(), benchprog.DefaultSpMV.Configs()},
	}

	t := &Table{
		ID:    "Table Sparse",
		Title: "Irregular workloads w/ and w/o the inspector-executor (4 locales)",
		Header: []string{"Benchmark", "Msgs (aggregated)", "Msgs (inspector)", "Reduction",
			"Builds", "Hits", "Replicated", "Identical"},
	}

	for _, c := range cases {
		res, err := c.prog.Compile(compile.Options{})
		if err != nil {
			return nil, err
		}

		run := func(inspector bool) (vm.Stats, string, error) {
			var out strings.Builder
			req := serve.Request{Configs: c.cfgs, Locales: 4, CommAggregate: true, CommInspector: inspector}
			cfg := req.VMConfig(res.Prog)
			cfg.Stdout = &out
			stats, err := vm.New(res.Prog, cfg).Run()
			return stats, out.String(), err
		}
		base, bout, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.prog.Name, err)
		}
		insp, iout, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.prog.Name, err)
		}

		red := "-"
		if insp.CommMessages > 0 {
			red = fmt.Sprintf("%.1fx", float64(base.CommMessages)/float64(insp.CommMessages))
		}
		builds, hits, reps := int64(0), int64(0), int64(0)
		if a := insp.Agg; a != nil {
			builds, hits, reps = a.InspectorBuilds, a.ScheduleHits, a.ReplicatedVars
		}
		t.Rows = append(t.Rows, []string{
			c.prog.Name, fmt.Sprint(base.CommMessages), fmt.Sprint(insp.CommMessages), red,
			fmt.Sprint(builds), fmt.Sprint(hits), fmt.Sprint(reps),
			fmt.Sprint(bout == iout),
		})
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: bytes %d -> %d, wall %s s -> %s s (%s speedup); gathers %d (%d elems), replications %d (%d elems)",
			c.prog.Name, base.CommBytes, insp.CommBytes,
			secs(base.Seconds()), secs(insp.Seconds()),
			ratio(base.Seconds(), insp.Seconds()),
			insp.Agg.Gathers, insp.Agg.GatheredElems,
			insp.Agg.Replications, insp.Agg.ReplicatedElems))
	}
	t.Notes = append(t.Notes,
		"both runs use the aggregation runtime; the inspector adds inspect/schedule/replicate on the sites the analyzer classifies irregular (see DESIGN.md)",
		"the static cost engine models the same protocol: Table Static carries the sparse rows' predicted message counts",
	)
	return t, nil
}
