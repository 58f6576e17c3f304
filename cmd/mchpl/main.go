// Command mchpl compiles and runs a MiniChapel program on the simulated
// runtime — the equivalent of `chpl prog.chpl && ./prog` in the paper's
// workflow.
//
// Usage:
//
//	mchpl [flags] prog.mchpl [--config name=value ...]
//	mchpl [flags] -bench minimd|minimd_opt|clomp|clomp_opt|lulesh|lulesh_best|halo|wavefront|gather|spmv
//
// Flags mirror the paper's compiler/runtime options: -fast (--fast),
// -no-checks (--no-checks), -cores (the testbed's core count),
// -locales (PGAS node count). -analyze runs the static performance
// diagnostics (internal/analyze) instead of executing the program.
// -backend selects the execution engine: interp (default) or go, the
// native-compiled runner (differential-tested bit-identical, needs the
// Go toolchain on PATH).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/gobert"
	"repro/internal/analyze"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/gobe"
	"repro/internal/serve"
	"repro/internal/vm"
)

func main() {
	req := &serve.Request{}
	finishRunFlags := serve.BindRunFlags(flag.CommandLine, req)
	var (
		fast        = flag.Bool("fast", false, "enable the --fast optimization pipeline")
		noChecks    = flag.Bool("no-checks", false, "elide bounds checks (--no-checks)")
		bench       = flag.String("bench", "", "run a built-in benchmark instead of a file")
		stats       = flag.Bool("stats", false, "print run statistics")
		dumpIR      = flag.Bool("dump-ir", false, "print the compiled IR and exit")
		analyzeF    = flag.Bool("analyze", false, "run the static performance diagnostics and exit")
		analyzeJSON = flag.Bool("analyze-json", false, "print the static diagnostics as JSON and exit")
		maxCyc      = flag.Uint64("max-cycles", 10_000_000_000, "cycle budget (0 = unlimited)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the compile+run to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
		backend     = flag.String("backend", "interp", "execution backend: interp (tree-walking VM) or go (native-compiled runner, needs the Go toolchain)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mchpl: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mchpl: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "mchpl: memprofile:", err)
			}
		}()
	}

	src, name, err := loadSource(*bench, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mchpl:", err)
		os.Exit(1)
	}

	res, err := compile.Source(name, src, compile.Options{Fast: *fast, NoChecks: *noChecks})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mchpl:", err)
		os.Exit(1)
	}
	if *dumpIR {
		fmt.Print(res.Prog.Dump())
		return
	}
	if *analyzeJSON {
		if err := analyze.Run(res.Prog).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mchpl:", err)
			os.Exit(1)
		}
		return
	}
	if *analyzeF {
		fmt.Print(analyze.Run(res.Prog).Text())
		return
	}

	if err := finishRunFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "mchpl:", err)
		os.Exit(1)
	}
	req.Configs = serve.ParseConfigs(flag.Args())
	switch *backend {
	case "interp":
		cfg := req.VMConfig(res.Prog)
		cfg.MaxCycles = *maxCyc
		cfg.Stdout = os.Stdout
		cfg.Fault = req.Injector()
		st, err := vm.New(res.Prog, cfg).Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mchpl:", err)
			os.Exit(1)
		}
		finishRun(st, *stats, req.Locales)
	case "go":
		spec := &gobert.RunSpec{Mode: "run", MaxCycles: *maxCyc, Request: req}
		st, err := runGoBackend(name, src, compile.Options{Fast: *fast, NoChecks: *noChecks}, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mchpl:", err)
			os.Exit(1)
		}
		finishRun(st, *stats, req.Locales)
	default:
		fmt.Fprintf(os.Stderr, "mchpl: unknown backend %q (have [go interp])\n", *backend)
		os.Exit(1)
	}
}

// runGoBackend executes the program through the native-compiled runner
// (internal/gobe): build (content-hash cached), run the subprocess, echo
// its program output, and decode its stats. A missing Go toolchain
// surfaces as gobe.ErrNoGoToolchain — a clean nonzero exit, not a panic.
func runGoBackend(name, src string, opts compile.Options, spec *gobert.RunSpec) (vm.Stats, error) {
	var st vm.Stats
	r, err := gobe.Build(name, src, opts)
	if err != nil {
		return st, err
	}
	reply, err := r.Exec(spec)
	if err != nil {
		return st, err
	}
	fmt.Print(reply.Output)
	if reply.RunErr != "" {
		return st, fmt.Errorf("%s", reply.RunErr)
	}
	if err := json.Unmarshal(reply.Stats, &st); err != nil {
		return st, fmt.Errorf("decoding runner stats: %v", err)
	}
	return st, nil
}

// finishRun prints the optional -stats block and any recovered task
// panics; shared by both backends so their reporting is identical.
func finishRun(st vm.Stats, showStats bool, locales int) {
	if showStats {
		fmt.Fprintf(os.Stderr, "elapsed (simulated): %.6f s  wall cycles: %d  total cycles: %d  spin: %.1f%%  tasks: %d  allocs: %d\n",
			st.Seconds(), st.WallCycles, st.TotalCycles,
			100*float64(st.SpinCycles)/float64(max(1, st.TotalCycles)), st.TasksSpawned, st.Allocations)
		fmt.Fprintf(os.Stderr, "comm: %d messages  %d bytes\n", st.CommMessages, st.CommBytes)
		if locales > 1 {
			fmt.Fprintf(os.Stderr, "scheduling: %d owner-computes chunks  %d remote spawns  %d owner-site violations\n",
				st.OwnerChunks, st.RemoteSpawns, st.OwnerSiteRemote)
		}
		if a := st.Agg; a != nil {
			fmt.Fprintf(os.Stderr, "comm aggregation: %.1f%% cache hit rate  %d prefetches (%d elems)  %d streams (%d elems)  %d flushes (%d elems)  %d invalidations  %d evictions\n",
				100*a.HitRate(), a.Prefetches, a.PrefetchedElems, a.Streams, a.StreamedElems,
				a.Flushes, a.FlushedElems, a.Invalidations, a.Evictions)
			if a.InspectorBuilds != 0 || a.ScheduleHits != 0 || a.ReplicatedVars != 0 {
				fmt.Fprintf(os.Stderr, "comm inspector: %d builds  %d schedule hits  %d gathers (%d elems)  %d replications (%d elems)  %d replicated vars\n",
					a.InspectorBuilds, a.ScheduleHits, a.Gathers, a.GatheredElems,
					a.Replications, a.ReplicatedElems, a.ReplicatedVars)
			}
		}
		if f := st.Fault; f != nil {
			fmt.Fprintln(os.Stderr, f.Render())
		}
	}
	// Task panics are diagnostics, not run failures: the scheduler recovers
	// them and the run completes, so always disclose them on stderr.
	for _, p := range st.TaskPanics {
		fmt.Fprintf(os.Stderr, "mchpl: task %d panicked in %s: %s\n", p.TaskID, p.Fn, p.Msg)
	}
}

func loadSource(bench string, args []string) (src, name string, err error) {
	if bench != "" {
		p, ok := benchprog.Builtin(bench)
		if !ok {
			return "", "", fmt.Errorf("unknown benchmark %q", bench)
		}
		return p.Source, p.Name + ".mchpl", nil
	}
	if len(args) == 0 || strings.HasPrefix(args[0], "--") {
		return "", "", fmt.Errorf("usage: mchpl [flags] prog.mchpl | -bench name")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(b), args[0], nil
}
