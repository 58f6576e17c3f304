package vm_test

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
)

const faultSrc = `
config const n = 40;
var D: domain(1) dmapped Block = {0..#n};
var A: [D] real;
proc main() {
  forall i in D { A[i] = i * 1.0; }
  var s = 0.0;
  for i in 0..#n { s += A[i]; }
  writeln(s);
}
`

// Faults on the direct (unaggregated) comm path never change output —
// only latency and the fault counters.
func TestDirectPathFaultsPreserveOutput(t *testing.T) {
	base, baseStats := run(t, faultSrc, func(c *vm.Config) {
		c.NumLocales = 4
		c.NumCores = 4
	})
	spec, err := fault.ParseSpec("loss=0.3,dup=0.2,delay=0.5:3xCommLatency")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(spec, 42)
	out, stats := run(t, faultSrc, func(c *vm.Config) {
		c.NumLocales = 4
		c.NumCores = 4
		c.Fault = inj
	})
	if out != base {
		t.Errorf("faulty output %q != fault-free %q", out, base)
	}
	if stats.CommMessages != baseStats.CommMessages {
		t.Errorf("message count changed: %d vs %d", stats.CommMessages, baseStats.CommMessages)
	}
	st := stats.Fault
	if st == nil || st.Sends == 0 {
		t.Fatalf("no sends recorded: %+v", st)
	}
	if st.Retries == 0 {
		t.Errorf("loss=0.3 over %d sends produced no retries: %+v", st.Sends, st)
	}
	if stats.WallCycles < baseStats.WallCycles {
		t.Errorf("faulty run finished earlier: %d < %d", stats.WallCycles, baseStats.WallCycles)
	}
}

// A locale failing mid-run on the aggregated path: remote spawns fall
// back to the spawner's locale, messages to the dead locale time out,
// and the program still completes with correct output.
func TestLocaleFailureFallsBack(t *testing.T) {
	base, _ := run(t, faultSrc, func(c *vm.Config) {
		c.NumLocales = 4
		c.NumCores = 4
	})
	spec, err := fault.ParseSpec("locale-fail=3@tick0")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(spec, 1)
	out, stats := run(t, faultSrc, func(c *vm.Config) {
		c.NumLocales = 4
		c.NumCores = 4
		c.Fault = inj
	})
	if out != base {
		t.Errorf("output after locale failure %q != fault-free %q", out, base)
	}
	st := stats.Fault
	if st == nil || st.FailedLocaleFallbacks == 0 {
		t.Fatalf("no fallbacks recorded: %+v", st)
	}
	if st.Timeouts == 0 {
		t.Errorf("reads of the dead locale's block should time out: %+v", st)
	}
}

// panicAfter is a Listener that panics on its nth Exec call, standing in
// for a buggy monitor: the VM must recover it into a per-task diagnostic
// and keep the run alive.
type panicAfter struct {
	left int
}

func (p *panicAfter) Exec(uint64, *vm.Task, *ir.Instr, *vm.ArrayVal) {
	p.left--
	if p.left == 0 {
		panic("monitor exploded")
	}
}
func (p *panicAfter) Spin(uint64, *vm.Task, *ir.Func)                  {}
func (p *panicAfter) PreSpawn(*vm.Task, uint64)                        {}
func (p *panicAfter) Alloc(uint64, int64, *ir.Var)                     {}
func (p *panicAfter) Comm(uint64, int64, int, int, *ir.Var, *ir.Instr) {}

func TestTaskPanicRecoveredIntoDiagnostics(t *testing.T) {
	src := `
var D: domain(1) = {0..#64};
var A: [D] int;
proc main() {
  forall i in D { A[i] = i; }
  writeln("done");
}
`
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	cfg := vm.DefaultConfig()
	cfg.Stdout = &out
	cfg.MaxCycles = 500_000_000
	cfg.Listener = &panicAfter{left: 100}
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		t.Fatalf("run died instead of degrading: %v", err)
	}
	if len(stats.TaskPanics) == 0 {
		t.Fatal("panic was not recorded")
	}
	p := stats.TaskPanics[0]
	if !strings.Contains(p.Msg, "monitor exploded") || p.Fn == "" {
		t.Errorf("diagnostic incomplete: %+v", p)
	}
}
