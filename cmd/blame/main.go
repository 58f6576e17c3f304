// Command blame is the data-centric profiler CLI — the reproduction of
// the paper's tool. It compiles a MiniChapel program (or a built-in
// benchmark), runs it under the monitoring process with PMU sampling,
// performs post-mortem blame attribution, and prints the three views of
// §IV.D: the flat data-centric view (default), the code-centric view
// (pprof-style, Fig. 4), and the hybrid blame-points view. With -lint it
// additionally runs the static diagnostics (internal/analyze) and prints
// the blame-guided advisor, joining static findings with dynamic ranks.
//
// The CLI is a thin shell over internal/serve.Execute — the same code
// path cmd/blamed serves over HTTP — so a profile fetched from the
// server is byte-identical to the one this command prints.
//
// Usage:
//
//	blame [flags] prog.mchpl [--config=value ...]
//	blame [flags] -bench lulesh
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/gobe"
	"repro/internal/serve"
	"repro/internal/super"
)

func main() {
	req := &serve.Request{}
	finishRunFlags := serve.BindRunFlags(flag.CommandLine, req)
	flag.Uint64Var(&req.Threshold, "threshold", 0, "PMU overflow threshold in cycles (0 = auto-scale)")
	flag.BoolVar(&req.NoImplicit, "no-implicit", false, "disable implicit (control-dependence) transfer")
	flag.BoolVar(&req.NoInterproc, "no-interproc", false, "disable interprocedural transfer functions")
	flag.BoolVar(&req.Lines, "lines", false, "line-granularity attribution")
	flag.IntVar(&req.Skid, "skid", 0, "inject PMU interrupt skid (instructions)")
	flag.BoolVar(&req.PerLocale, "per-locale", false, "also print per-locale profiles")
	flag.BoolVar(&req.Lint, "lint", false, "run the static diagnostics and print the blame-guided advisor view")
	flag.IntVar(&req.SampleBuffer, "sample-buffer", 0, "bound the monitor's sample ring buffer (0 = unbounded); overruns drop samples")
	var (
		bench    = flag.String("bench", "", "profile a built-in benchmark")
		view     = flag.String("view", "data", "view: data | code | hybrid | all | baseline | comm")
		limit    = flag.Int("limit", 20, "rows per view")
		jsonOut  = flag.String("json", "", "also write the profile as JSON to this file")
		lintJSON = flag.Bool("lint-json", false, "print the static diagnostics as JSON and exit (no execution)")
		static   = flag.Bool("static", false, "print the static cost engine's predicted blame and comm volume and exit (no execution)")
		backend  = flag.String("backend", "interp", "execution backend: interp (in-process VM) or go (native-compiled runner, needs the Go toolchain)")
	)
	flag.Parse()

	src, name, err := loadSource(*bench, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "blame:", err)
		os.Exit(1)
	}
	if err := finishRunFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "blame:", err)
		os.Exit(1)
	}
	req.Source, req.Name = src, name
	req.Configs = serve.ParseConfigs(flag.Args())
	req.View = *view
	switch {
	case *lintJSON:
		req.View = "lint-json"
	case *static:
		req.View = "static"
	}
	req.Limit = *limit
	if *limit == 0 {
		req.Limit = -1 // historical CLI meaning: -limit 0 is unlimited
	}
	if err := req.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, "blame:", err)
		os.Exit(1)
	}

	var out *serve.Outcome
	switch *backend {
	case "interp":
		out, err = serve.Execute(req, nil)
	case "go":
		// The full serve pipeline runs inside the native-compiled runner
		// (sampling listeners cannot cross the process boundary); the
		// outcome comes back as the same envelope serve would produce. A
		// missing Go toolchain is a clean nonzero exit (ErrNoGoToolchain).
		out, err = execGoBackend(req)
	default:
		fmt.Fprintf(os.Stderr, "blame: unknown backend %q (have [go interp])\n", *backend)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blame:", err)
		os.Exit(1)
	}
	fmt.Print(out.Text)
	if *jsonOut != "" && !req.Lint && out.ProfileJSON != nil {
		if err := os.WriteFile(*jsonOut, out.ProfileJSON, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "blame:", err)
			os.Exit(1)
		}
	}
}

// execGoBackend runs the request through the compiled-backend runner:
// gobe.Build (content-hash cached) then the runner's outcome mode, which
// embeds the identical serve.Execute pipeline. The runner executes
// under host-level supervision (internal/super) so a crashed or hung
// runner process restarts with backoff instead of failing the CLI; a
// persistent crasher falls back to the bit-identical interpreter.
func execGoBackend(req *serve.Request) (*serve.Outcome, error) {
	r, err := gobe.Build(req.Name, req.Source, compile.Options{})
	if err != nil {
		return nil, err
	}
	return super.New(super.Options{}).Outcome(r, req, nil)
}

func loadSource(bench string, args []string) (string, string, error) {
	if bench != "" {
		return serveBench(bench)
	}
	if len(args) == 0 || strings.HasPrefix(args[0], "--") {
		return "", "", fmt.Errorf("usage: blame [flags] prog.mchpl | -bench name")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(b), args[0], nil
}

// serveBench resolves -bench through the same table the server's
// request schema uses.
func serveBench(name string) (string, string, error) {
	src, progName, err := serve.ResolveBench(name)
	if err != nil {
		return "", "", fmt.Errorf("%w (known: %s)", err, strings.Join(benchprog.Names(), ", "))
	}
	return src, progName, nil
}
