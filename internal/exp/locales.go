package exp

import (
	"fmt"
	"strings"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/vm"
)

// TableLocales is the locale-scaling study for the owner-computes forall
// scheduler: halo and wavefront at 1/2/4/8 locales, measured under
// spawn-locale scheduling (PR 2 baseline) and owner-computes scheduling
// (default), both with the modeled aggregation runtime. Columns report
// charged network messages and modeled wall time; each benchmark row
// cites the static comm-pattern finding that predicted its traffic, so
// the table closes the same predict -> transform -> measure loop as
// Table Agg, one axis over.
func TableLocales() (*Table, error) {
	cases := []struct {
		prog benchprog.Program
		cfgs map[string]string
	}{
		{benchprog.Halo(), benchprog.DefaultHalo.Configs()},
		{benchprog.Wavefront(), benchprog.DefaultWavefront.Configs()},
	}
	locales := []int{1, 2, 4, 8}

	t := &Table{
		ID:    "Table Locales",
		Title: "Owner-computes forall scheduling vs spawn-locale baseline (modeled aggregation on)",
		Header: []string{"Benchmark", "Locales", "Msgs (baseline)", "Msgs (owner)",
			"Time s (baseline)", "Time s (owner)", "Violations (baseline)", "Violations (owner)"},
	}

	for _, c := range cases {
		res, err := c.prog.Compile(compile.Options{})
		if err != nil {
			return nil, err
		}

		run := func(nl int, ownerComputes bool) (vm.Stats, string, error) {
			var out strings.Builder
			req := serve.Request{Configs: c.cfgs, Locales: nl, CommAggregate: true, NoOwnerComputes: !ownerComputes}
			cfg := req.VMConfig(res.Prog)
			cfg.Stdout = &out
			stats, err := vm.New(res.Prog, cfg).Run()
			return stats, out.String(), err
		}

		var refOut string
		identical := true
		for _, nl := range locales {
			bs, bout, err := run(nl, false)
			if err != nil {
				return nil, fmt.Errorf("%s at %d locales (baseline): %w", c.prog.Name, nl, err)
			}
			os, oout, err := run(nl, true)
			if err != nil {
				return nil, fmt.Errorf("%s at %d locales (owner): %w", c.prog.Name, nl, err)
			}
			if refOut == "" {
				refOut = bout
			}
			identical = identical && bout == refOut && oout == refOut
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s/%dL", c.prog.Name, nl), fmt.Sprint(nl),
				fmt.Sprint(bs.CommMessages), fmt.Sprint(os.CommMessages),
				secs(bs.Seconds()), secs(os.Seconds()),
				fmt.Sprint(bs.OwnerSiteRemote), fmt.Sprint(os.OwnerSiteRemote),
			})
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("%s: output identical across all locale counts and both schedulers: %v; predicted by %s",
				c.prog.Name, identical, predictedBy(c.prog, "comm-pattern")))
	}

	t.Notes = append(t.Notes,
		"baseline = spawn-locale scheduling (-no-owner-computes); owner = owner-computes forall distribution (default)",
		"violations = remote element accesses at statically owner-computes sites (must be 0 under owner scheduling)")
	return t, nil
}
