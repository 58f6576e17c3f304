package gobert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/vm"
)

// ProgramSpec is what a generated runner knows about itself: the exact
// source and compile options it was generated from, the IR fingerprint
// the generated code assumes, and the installer that wires compiled
// functions to the recompiled program.
type ProgramSpec struct {
	Name     string
	Source   string
	Fast     bool
	NoChecks bool
	// Fingerprint is gobert.Fingerprint of the program the code was
	// generated from; Main refuses to run if the recompile disagrees.
	Fingerprint string
	// Install resolves block tables against the recompiled program and
	// returns the slice hook.
	Install func(p *Program) SliceFn
}

// RunSpec is the host-to-runner request, one JSON object on stdin. The
// run itself is described by a serve.Request, the repository's one run
// spec; the runner derives its VM configuration from it exactly as the
// host does.
type RunSpec struct {
	// Mode selects what to execute: "run" (plain execution, mirrors
	// cmd/mchpl) or "outcome" (the full serve.Execute pipeline, mirrors
	// cmd/blame and the HTTP daemon).
	Mode string `json:"mode"`
	// MaxCycles is the run-mode cycle budget (0 = unlimited).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Request describes the run. Run mode reads only its run knobs (nil
	// means the zero Request); outcome mode needs one that references
	// the runner's own program.
	Request *serve.Request `json:"request,omitempty"`
}

// Reply is the runner-to-host response, one JSON object on stdout.
type Reply struct {
	// Output and Stats carry "run" mode results. Stats is the runner's
	// own json.Marshal of vm.Stats: the host compares it byte-for-byte
	// against its interpreter run instead of re-encoding through a lossy
	// unmarshal.
	Output string          `json:"output,omitempty"`
	Stats  json.RawMessage `json:"stats,omitempty"`
	// Outcome and Profile carry "outcome" mode results (serve.Outcome
	// and the profile JSON, which serve excludes from the envelope).
	Outcome json.RawMessage `json:"outcome,omitempty"`
	Profile json.RawMessage `json:"profile,omitempty"`
	// WallNs is the wall-clock time of execution only (compile and
	// process startup excluded) — the honest backend speed measure.
	WallNs int64 `json:"wall_ns"`
	// Compiled confirms the compiled dispatch loop ran.
	Compiled bool `json:"compiled"`
	// RunErr is a program-level runtime error (the interpreter would
	// report the same one); Err is a runner-internal failure.
	RunErr string `json:"run_err,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Run executes a run-mode spec on prog in this process and encodes the
// result as the runner protocol does. The runner and the host's
// interpreter reference (gobe.InterpReply) both call it, so the two
// backends run under one configuration by construction.
func (rs *RunSpec) Run(prog *Program) *Reply {
	req := rs.Request
	if req == nil {
		req = &serve.Request{}
	}
	if _, err := fault.ParseSpec(req.FaultSpec); err != nil {
		return &Reply{Err: err.Error()}
	}
	cfg := req.VMConfig(prog)
	cfg.MaxCycles = rs.MaxCycles
	cfg.Fault = req.Injector()
	var out bytes.Buffer
	cfg.Stdout = &out
	start := time.Now()
	stats, err := vm.New(prog, cfg).Run()
	r := &Reply{Output: out.String(), WallNs: time.Since(start).Nanoseconds()}
	if err != nil {
		r.RunErr = err.Error()
		return r
	}
	if r.Stats, err = json.Marshal(stats); err != nil {
		return &Reply{Err: "encoding stats: " + err.Error()}
	}
	return r
}

// Outcome executes an outcome-mode spec in this process: it normalizes
// the request, runs it through serve.Execute and encodes the outcome and
// profile as the runner protocol does. The runner and gobe.InterpReply
// both call it, as they do Run for run mode.
func (rs *RunSpec) Outcome() *Reply {
	if rs.Request == nil {
		return &Reply{Err: "outcome mode needs a request"}
	}
	if err := rs.Request.Normalize(); err != nil {
		return &Reply{Err: err.Error()}
	}
	start := time.Now()
	out, err := serve.Execute(rs.Request, nil)
	r := &Reply{WallNs: time.Since(start).Nanoseconds()}
	if err != nil {
		r.RunErr = err.Error()
		return r
	}
	if r.Outcome, err = json.Marshal(out); err != nil {
		return &Reply{Err: "encoding outcome: " + err.Error()}
	}
	r.Profile = out.ProfileJSON
	return r
}

// Main is the generated runner's entry point: read one RunSpec from
// stdin, recompile the embedded source (deterministic, so the IR matches
// what the code was generated from), install the compiled backend, run,
// and write one Reply to stdout. Never panics across the protocol
// boundary: internal failures become Reply.Err with exit status 1.
func Main(spec ProgramSpec) {
	armCrashTimer()
	if path := os.Getenv("MCHPL_RUNNER_CPUPROFILE"); path != "" {
		if f, err := os.Create(path); err == nil {
			_ = pprof.StartCPUProfile(f)
			defer func() {
				pprof.StopCPUProfile()
				_ = f.Close()
			}()
		}
	}
	reply := run(spec, os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(reply); err != nil {
		fmt.Fprintln(os.Stderr, "gobert:", err)
		os.Exit(1)
	}
	if reply.Err != "" {
		os.Exit(1)
	}
}

func run(spec ProgramSpec, in io.Reader) *Reply {
	var rs RunSpec
	if err := json.NewDecoder(in).Decode(&rs); err != nil {
		return &Reply{Err: "decoding run spec: " + err.Error()}
	}

	opts := compile.Options{Fast: spec.Fast, NoChecks: spec.NoChecks}
	res, err := compile.SourceCached(spec.Name, spec.Source, opts)
	if err != nil {
		return &Reply{Err: "recompiling embedded source: " + err.Error()}
	}
	if fp := Fingerprint(res.Prog); fp != spec.Fingerprint {
		return &Reply{Err: fmt.Sprintf("IR fingerprint mismatch: generated for %s, recompiled to %s (stale runner?)", spec.Fingerprint, fp)}
	}
	vm.RegisterCompiled(res.Prog, spec.Install(res.Prog))

	var r *Reply
	switch rs.Mode {
	case "run":
		r = rs.Run(res.Prog)
	case "outcome":
		if spec.Fast || spec.NoChecks {
			return &Reply{Err: "outcome mode requires a runner generated with default compile options (serve compiles with defaults)"}
		}
		if req := rs.Request; req != nil && (req.Source != spec.Source || req.Name != spec.Name) {
			return &Reply{Err: "outcome request does not match the runner's embedded program"}
		}
		r = rs.Outcome()
	default:
		return &Reply{Err: fmt.Sprintf("unknown mode %q", rs.Mode)}
	}
	r.Compiled = CompiledUsed()
	if r.Err == "" && r.RunErr == "" && !r.Compiled {
		r.Err = "compiled backend was never dispatched (registry miss)"
	}
	return r
}
