package cost_test

import (
	"io"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/vm"
)

// devCase pairs a benchmark with its experiment configuration.
type devCase struct {
	prog benchprog.Program
	cfgs map[string]string
	nl   int
	agg  bool
}

func devVM(c devCase) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Configs = c.cfgs
	cfg.MaxCycles = 5_000_000_000
	cfg.NumLocales = c.nl
	cfg.CommAggregate = c.agg
	cfg.Stdout = io.Discard
	return cfg
}

func TestDevHaloDetail(t *testing.T) {
	c := devCase{benchprog.Halo(), benchprog.DefaultHalo.Configs(), 4, true}
	res, err := c.prog.Compile(compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc := blame.DefaultConfig()
	bc.VM = devVM(c)
	r, err := blame.Profile(res.Prog, bc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("total=%d spin=%d comm-stall-ish: msgs=%d", r.Stats.TotalCycles, r.Stats.SpinCycles, r.Stats.CommMessages)
	for i, fr := range r.Profile.CodeCentric {
		if i >= 10 {
			break
		}
		t.Logf("code %d: %-28s flat=%d (%.1f%%) cum=%d (%.1f%%)", i, fr.Name, fr.Flat, fr.FlatPct*100, fr.Cum, fr.CumPct*100)
	}
}
