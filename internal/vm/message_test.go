package vm_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/vm"
)

// msgTally is a Listener that counts every charged data message it is
// told about, and separately the ones the aggregation runtime decided
// on: those sent at task end or at a barrier (no instruction), and those
// charged while executing an access to a Block-distributed array, which
// the VM routes through the runtime when aggregation is on.
type msgTally struct {
	aggregate bool

	msgs, bytes       int64
	aggMsgs, aggBytes int64
	// pending holds the messages of the instruction executing now; its
	// Exec call says which array it accessed.
	pendMsgs, pendBytes int64
}

func (c *msgTally) Exec(_ uint64, _ *vm.Task, _ *ir.Instr, acc *vm.ArrayVal) {
	if c.aggregate && acc != nil && acc.DistBlock && acc.NumLoc > 1 {
		c.aggMsgs += c.pendMsgs
		c.aggBytes += c.pendBytes
	}
	c.pendMsgs, c.pendBytes = 0, 0
}

func (c *msgTally) Spin(uint64, *vm.Task, *ir.Func) {}
func (c *msgTally) PreSpawn(*vm.Task, uint64)       {}
func (c *msgTally) Alloc(uint64, int64, *ir.Var)    {}

func (c *msgTally) Comm(_ uint64, bytes int64, _, _ int, _ *ir.Var, in *ir.Instr) {
	c.msgs++
	c.bytes += bytes
	if in == nil {
		c.aggMsgs++
		c.aggBytes += bytes
		return
	}
	c.pendMsgs++
	c.pendBytes += bytes
}

// mixedComm reads a Block-distributed array's halo, which aggregation
// routes through the runtime, and a locale-0 array from every locale,
// which is always a direct message.
const mixedComm = `
config const n = 64;
var D: domain(1) dmapped Block = {0..#n};
var G: [D] real;
var E: domain(1) = {0..#n};
var L: [E] real;
proc main() {
  forall i in E { L[i] = i * 2.0; }
  forall i in D { G[i] = i * 1.0; }
  for l in 0..#numLocales {
    on Locales[l] {
      forall i in l * (n / numLocales)..(l + 1) * (n / numLocales) - 1 {
        var left = if i > 0 then G[i-1] else 0.0;
        G[i] = left + L[i];
      }
    }
  }
  writeln(+ reduce G);
}
`

// TestEveryChargedMessageReachesListenerOnce: on every built-in and on a
// program mixing runtime and direct messages, in each comm mode, at 1, 2
// and 4 locales, with and without injected loss, the listener hears of
// exactly the messages the VM counts — the same number and the same
// bytes. With aggregation on, the runtime's share matches the runtime's
// own counters (Stats.Agg), so a message charged twice or never reported
// shows up on one side or the other.
func TestEveryChargedMessageReachesListenerOnce(t *testing.T) {
	modes := []struct {
		name            string
		aggregate, insp bool
	}{{"plain", false, false}, {"aggregate", true, false}, {"inspector", true, true}}
	for _, name := range append(benchprog.Names(), "mixed") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var res *compile.Result
			var err error
			if p, ok := benchprog.Builtin(name); ok {
				res, err = p.Compile(compile.Options{})
			} else {
				res, err = compile.Source("mixed.mchpl", mixedComm, compile.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			prog := res.Prog
			var direct, runtime int64 // aggregated 4-locale runs
			for _, mode := range modes {
				for _, nl := range []int{1, 2, 4} {
					for _, spec := range []string{"", "loss=0.05"} {
						cell := fmt.Sprintf("%s/%d locales/%q", mode.name, nl, spec)
						req := &serve.Request{Locales: nl, CommAggregate: mode.aggregate, CommInspector: mode.insp, FaultSpec: spec}
						cfg := req.VMConfig(prog)
						cfg.Stdout = io.Discard
						cfg.Fault = req.Injector()
						tally := &msgTally{aggregate: mode.aggregate}
						cfg.Listener = tally
						st, err := vm.New(prog, cfg).Run()
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						if tally.msgs != int64(st.CommMessages) || tally.bytes != st.CommBytes {
							t.Errorf("%s: listener heard %d messages / %d bytes, VM counted %d / %d",
								cell, tally.msgs, tally.bytes, st.CommMessages, st.CommBytes)
						}
						if tally.pendMsgs != 0 {
							t.Errorf("%s: %d messages charged after the last instruction", cell, tally.pendMsgs)
						}
						if !mode.aggregate {
							if st.Agg != nil {
								t.Errorf("%s: plain run has aggregation stats", cell)
							}
							continue
						}
						if st.Agg == nil {
							t.Fatalf("%s: aggregated run has no aggregation stats", cell)
						}
						if tally.aggMsgs != st.Agg.Messages || tally.aggBytes != st.Agg.Bytes {
							t.Errorf("%s: listener heard %d runtime messages / %d bytes, runtime counted %d / %d",
								cell, tally.aggMsgs, tally.aggBytes, st.Agg.Messages, st.Agg.Bytes)
						}
						if nl == 4 {
							direct += tally.msgs - tally.aggMsgs
							runtime += tally.aggMsgs
						}
					}
				}
			}
			if name == "mixed" && (direct == 0 || runtime == 0) {
				t.Errorf("aggregated 4-locale runs sent %d direct and %d runtime messages, want both > 0", direct, runtime)
			}
		})
	}
}
