// Command perfbench is the repository's end-to-end benchmark. Each run
// replays one workload's fixed, seeded request sequence to completion,
// checks every response against the checked-in digest table, and prints
// one JSON object as its last line of output.
//
//	perfbench -workload profile -seed 1 -seconds 50 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// replays one pass once more through the benchmark's own layer-by-layer
// re-drive of the pipeline, recording a span around every public
// layer call, and reports the per-layer metrics. perfbench/run.sh builds
// and runs it from the root of a checkout; README.md in this directory
// documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
)

// workDir holds everything a run writes: temp dirs, runner builds, spans.
const workDir = ".bench_build"

// passSeconds is the nominal length of one pass over a workload's
// catalogue on a 2-core machine; -seconds sets the number of passes.
// Each pass is timed on its own, and a time metric is the best value of
// any pass: contention from the rest of a shared host only ever adds
// time to work that is identical in every pass, so the best pass is the
// one it disturbed least.
const passSeconds = 10

// setupReps is how often a run sets its workload up; setup_s is the
// median.
const setupReps = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "profile | serve")
	seed := flag.Int64("seed", 1, "seed for the order of the request sequence")
	seconds := flag.Int("seconds", passSeconds, "nominal measured seconds; sets the number of passes over the catalogue")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced re-drive")
	digestsOut := flag.String("write-digests", "", "regenerate the digest table at this path and exit")
	flag.Parse()

	var err error
	switch {
	case *digestsOut != "":
		err = writeDigests(*digestsOut)
	default:
		err = runWorkload(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is one run's shared state.
type bench struct {
	name    string
	seed    int64
	passes  int
	digests map[string]string
	tmp     string // per-run scratch dir under workDir, absolute
	lines   []string
}

func (b *bench) logf(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// resetMemos empties the compile and blame-analysis memos, so the next
// request pays for both as a first request of its source does.
func resetMemos() {
	compile.ResetCache()
	core.ResetCache()
}

func runWorkload(name string, seed int64, seconds int, trace bool) error {
	newW, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want profile or serve)", name)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workDir, "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// Absolute: the runner build resolves its cache dir from elsewhere.
	if tmp, err = filepath.Abs(tmp); err != nil {
		return err
	}
	b := &bench{
		name:    name,
		seed:    seed,
		passes:  max(1, (seconds+passSeconds/2)/passSeconds),
		digests: digests,
		tmp:     tmp,
	}
	if trace {
		// Per-layer counts are totals over one pass.
		b.passes = 1
	}
	w := newW(b)
	defer w.close()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.logf("%s: seed %d, %d pass(es), GOMAXPROCS %d, set-up %.3f s (median of %.3f)",
		name, seed, b.passes, runtime.GOMAXPROCS(0), median(setups), setups)

	var rep *report
	if trace {
		rep, err = tracedRun(b, w)
	} else {
		rep = timedRun(b, w, median(setups))
	}
	if err != nil {
		return err
	}
	if err := w.close(); err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	for _, l := range b.lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd lists every end-to-end metric: name, unit, and which
// direction is better. BENCHMARK.json repeats it.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_ms.p50", "ms", "lower"},
	{"latency_ms.p90", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// timedRun replays the sequence untraced and reports the end-to-end
// metrics: each time metric is the best value of any pass.
func timedRun(b *bench, w *workload, setupS float64) *report {
	passes := w.replay(b, false)
	values := map[string]float64{
		"setup_s":     setupS,
		"peak_rss_mb": peakRSSMiB(),
	}
	var all []sample
	for i, p := range passes {
		lat := latencies(p.samples)
		n := float64(len(p.samples))
		p90, p99 := quantile(lat, 0.9), quantile(lat, 0.99)
		pass := map[string]float64{
			"throughput_rps": n / p.wall.Seconds(),
			"latency_ms.p50": quantile(lat, 0.5),
			"latency_ms.p90": p90,
			"cpu_ms_per_req": ms(p.cpu) / n,
		}
		b.logf("pass %d: %d requests in %.3f s (%.3f/s), latency_ms p50 %.3f, p90 %.3f with %d beyond, p99 %.3f with %d beyond, cpu %.3f ms/request",
			i+1, len(lat), p.wall.Seconds(), pass["throughput_rps"], pass["latency_ms.p50"], p90, beyond(lat, p90), p99, beyond(lat, p99), pass["cpu_ms_per_req"])
		for _, m := range endToEnd {
			v, ok := pass[m.name]
			if !ok {
				continue
			}
			old, seen := values[m.name]
			better := v < old
			if m.better == "higher" {
				better = v > old
			}
			if !seen || better {
				values[m.name] = v
			}
		}
		all = append(all, p.samples...)
	}
	failed := countFailed(b, all)
	b.logf("%d requests in %d passes, %d failed (fail_ratio %.4f)", len(all), len(passes), failed, float64(failed)/float64(len(all)))
	lat := latencies(all)
	byProg := map[string][]float64{}
	var progs []string
	for i, s := range all {
		p := progOf(s.key)
		if byProg[p] == nil {
			progs = append(progs, p)
		}
		byProg[p] = append(byProg[p], lat[i])
	}
	sort.Strings(progs)
	for _, p := range progs {
		b.logf("  %-12s %5d requests, median %.3f ms", p, len(byProg[p]), median(byProg[p]))
	}
	metrics := map[string]metric{}
	for _, m := range endToEnd {
		metrics[m.name] = metric{values[m.name], m.unit}
	}
	return &report{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: metrics}
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	return out
}

// countFailed counts failed samples and logs the first few.
func countFailed(b *bench, samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			continue
		}
		if n < 3 {
			b.logf("FAILED %s: %s", s.key, s.why)
		}
		n++
	}
	return n
}

// writeSpans stores the traced run's spans under workDir.
func writeSpans(b *bench, spans map[string][]span) (string, error) {
	dir := filepath.Join(workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
