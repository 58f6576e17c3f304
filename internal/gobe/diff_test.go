package gobe

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/gobert"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/vm"
)

// TestFaultSeedZeroReadsAsOne pins the fault-seed parity fix: seed 0
// reads as 1 on every entry point, so a request with seed 0 gives the
// stats of seed 1 both on the in-process run path (cmd/mchpl's
// -backend=interp) and in run mode (the runner and its reference).
func TestFaultSeedZeroReadsAsOne(t *testing.T) {
	prog := benchprog.Halo()
	name := prog.Name + ".mchpl"
	res, err := compile.SourceCached(name, prog.Source, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := func(seed uint64) *serve.Request {
		return &serve.Request{
			Locales: 4, CommAggregate: true, FaultSpec: "loss=0.05", FaultSeed: seed,
			Configs: benchprog.HaloConfig{N: 64, Reps: 2}.Configs(),
		}
	}
	inProcess := func(r *serve.Request) []byte {
		cfg := r.VMConfig(res.Prog)
		cfg.Fault = r.Injector()
		st, err := vm.New(res.Prog, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Fault == nil || st.Fault.Retries == 0 {
			t.Fatalf("seed %d: the fault spec dropped no messages", r.FaultSeed)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	runMode := func(r *serve.Request) []byte {
		reply, err := InterpReply(name, prog.Source, compile.Options{}, &gobert.RunSpec{Mode: "run", Request: r})
		if err != nil {
			t.Fatal(err)
		}
		return reply.Stats
	}
	zero, one := inProcess(req(0)), inProcess(req(1))
	if !bytes.Equal(zero, one) {
		t.Errorf("in-process: seed 0 stats differ from seed 1:\n%s\n%s", zero, one)
	}
	if got := runMode(req(0)); !bytes.Equal(got, one) {
		t.Errorf("run mode: seed 0 stats differ from in-process seed 1:\n%s\n%s", got, one)
	}
	if got := runMode(req(1)); !bytes.Equal(got, one) {
		t.Errorf("run mode: seed 1 stats differ from in-process seed 1:\n%s\n%s", got, one)
	}
}

// TestInterpReplyOutcomeBenchRequest runs a bench-named request through
// outcome mode without the Go toolchain: InterpReply re-normalizes a
// request that names both the bench and its source, exactly as a
// runner does.
func TestInterpReplyOutcomeBenchRequest(t *testing.T) {
	req := &serve.Request{Bench: "fig1"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	reply, err := InterpReply(req.Name, req.Source, compile.Options{}, &gobert.RunSpec{Mode: "outcome", Request: req})
	if err != nil {
		t.Fatal(err)
	}
	if reply.RunErr != "" || len(reply.Outcome) == 0 {
		t.Fatalf("outcome run failed: %q", reply.RunErr)
	}
}
