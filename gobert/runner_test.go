package gobert

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/serve"
	"repro/internal/vm"
)

// TestRunSpecWireRoundTrip pins the runner wire format without a Go
// toolchain: a run spec survives JSON encoding intact, and running the
// decoded spec gives the stats bytes the host's own spec gives.
func TestRunSpecWireRoundTrip(t *testing.T) {
	prog := benchprog.Gather()
	res, err := compile.SourceCached(prog.Name+".mchpl", prog.Source, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	host := &RunSpec{Mode: "run", MaxCycles: 2_000_000_000, Request: &serve.Request{
		Locales: 4, CommInspector: true, CommCache: -1, FaultSpec: "loss=0.05",
		Configs: benchprog.GatherConfig{N: 256, Reps: 2}.Configs(),
	}}
	wire, err := json.Marshal(host)
	if err != nil {
		t.Fatal(err)
	}
	var runner RunSpec
	if err := json.Unmarshal(wire, &runner); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&runner, host) {
		t.Fatalf("run spec changed on the wire:\nhost:   %+v\nrunner: %+v", host, &runner)
	}

	want, got := host.Run(res.Prog), runner.Run(res.Prog)
	if want.Err != "" || want.RunErr != "" {
		t.Fatalf("host run failed: %s%s", want.Err, want.RunErr)
	}
	if !bytes.Equal(got.Stats, want.Stats) || got.Output != want.Output {
		t.Fatalf("decoded spec ran differently:\nhost:   %s\nrunner: %s", want.Stats, got.Stats)
	}
	var st vm.Stats
	if err := json.Unmarshal(want.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Agg == nil || st.Agg.InspectorBuilds == 0 || st.Fault == nil || st.Fault.Sends == 0 {
		t.Fatalf("the run exercised neither the inspector nor the injector: %s", want.Stats)
	}
}
