package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/gobert"
	"repro/internal/analyze"
	"repro/internal/analyze/cost"
	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/gobe"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/serve"
	"repro/internal/super"
	"repro/internal/views"
	"repro/internal/vm"
)

// span is one timed call into a layer, or the root of one request.
// Spans of one request share Req; Parent indexes the span list.
type span struct {
	Name   string           `json:"name"`
	Req    int              `json:"req"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Alloc  uint64           `json:"alloc_bytes,omitempty"`
	Allocs uint64           `json:"allocs,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// request opens the root span of a new request.
func (t *tracer) request() (rid, root int) {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	rid = t.reqs
	t.reqs++
	t.spans = append(t.spans, span{Name: "request", Req: rid, Parent: -1, Start: start})
	return rid, len(t.spans) - 1
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// layer runs fn as one call into a layer: a span, plus the heap's
// allocation counters read on either side of it. The reads stop the
// world, so they sit outside the span's own interval. With one client
// the deltas belong to fn alone and repeat exactly from run to run.
func (t *tracer) layer(name string, rid, parent int, fn func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := t.now()
	fn()
	end := t.now()
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Req: rid, Parent: parent, Start: start, End: end,
		Alloc: after.TotalAlloc - before.TotalAlloc, Allocs: after.Mallocs - before.Mallocs,
	})
	return len(t.spans) - 1
}

func (t *tracer) count(id int, key string, v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += v
}

// traceData is what one traced replay measured.
type traceData struct {
	tr    *tracer
	wall  time.Duration
	extra map[string]float64 // metrics measured outside spans

	mu                sync.Mutex
	attempted, failed int
}

func newTraceData() *traceData {
	return &traceData{tr: &tracer{t0: time.Now()}, extra: map[string]float64{}}
}

// check counts one verified response and logs the first failures.
func (td *traceData) check(b *bench, key string, ok bool, why string) {
	td.mu.Lock()
	defer td.mu.Unlock()
	td.attempted++
	if !ok {
		if td.failed < 3 {
			b.logf("FAILED %s: %s", key, why)
		}
		td.failed++
	}
}

// compare checks a re-driven outcome byte for byte against the digest of
// the same request's serve.Execute (or runner) outcome.
func (td *traceData) compare(b *bench, key string, out *serve.Outcome, err error, want [32]byte) {
	switch {
	case err != nil:
		td.check(b, key, false, "re-drive: "+err.Error())
	case bytesDigest(out.Text, out.ProfileJSON, out.Output) != want:
		td.check(b, key, false, "re-driven outcome bytes differ from the untraced outcome")
	default:
		td.check(b, key, true, "")
	}
}

// redrive is serve.Execute re-driven layer by layer from this package,
// for the requests the catalogue sends (no per-locale profiles, faults,
// lint report or explicit threshold). The traced run asserts that its
// outcome is byte-identical to serve.Execute's, so the two cannot drift
// apart silently.
func redrive(t *tracer, req *serve.Request) (*serve.Outcome, error) {
	rid, root := t.request()
	defer t.end(root)
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	lim := req.Limit
	if lim < 0 {
		lim = 0
	}
	var res *compile.Result
	var err error
	t.layer("compile", rid, root, func() { res, err = compile.SourceCached(req.Name, req.Source, compile.Options{}) })
	if err != nil {
		return nil, err
	}
	prog := res.Prog

	if req.View == "lint-json" {
		var buf bytes.Buffer
		t.layer("analyze", rid, root, func() { err = analyze.Run(prog).WriteJSON(&buf) })
		return &serve.Outcome{Text: buf.String()}, err
	}

	var progOut bytes.Buffer
	cfg := blame.DefaultConfig()
	cfg.VM.NumCores = req.Cores
	cfg.VM.NumLocales = req.Locales
	cfg.VM.Stdout = &progOut
	cfg.VM.MaxCycles = 10_000_000_000
	cfg.VM.Configs = req.Configs
	cfg.Core = core.Options{
		ImplicitTransfer: !req.NoImplicit,
		Interprocedural:  !req.NoInterproc,
		LineGranularity:  req.Lines,
		TrackPaths:       true,
	}
	cfg.VM.NoOwnerComputes = req.NoOwnerComputes
	if req.CommAggregate {
		cfg.VM.CommAggregate = true
		cfg.VM.CommCacheCap = req.CommCache
		cfg.VM.CommInspector = req.CommInspector
	}
	if req.CommAggregate || req.Locales > 1 {
		t.layer("analyze", rid, root, func() { cfg.VM.CommPlan = analyze.CommPlan(prog) })
	}

	if req.View == "static" {
		opts := cost.DefaultOptions()
		opts.VM = cfg.VM
		opts.Core = cfg.Core
		// Predict looks the analysis up in the memo; filling it first
		// splits blame analysis from the cost engine.
		t.layer("core", rid, root, func() { core.AnalyzeCached(prog, cfg.Core) })
		var pred *cost.Prediction
		id := t.layer("cost", rid, root, func() { pred = cost.Predict(prog, opts) })
		if req.Locales > 1 {
			t.count(id, "walk_attempts", 1)
			if pred.WalkOK {
				t.count(id, "walk_ok", 1)
			}
		}
		var text string
		t.layer("views", rid, root, func() { text = views.Predicted(pred, lim) })
		return &serve.Outcome{Text: text}, nil
	}

	var cal vm.Stats
	id := t.layer("vm.calibrate", rid, root, func() { cal, err = vm.New(prog, cfg.VM).Run() })
	if err != nil {
		return nil, err
	}
	t.count(id, "instrs", int64(cal.Instructions))
	progOut.Reset()
	th := cal.TotalCycles / 4001
	if th < 101 {
		th = 101
	}
	cfg.Threshold = th | 1

	// blame.Profile, one layer at a time.
	var analysis *core.Analysis
	t.layer("core", rid, root, func() { analysis = core.AnalyzeCached(prog, cfg.Core) })
	var smp *sampler.Sampler
	t.layer("sampler", rid, root, func() { smp = sampler.New(prog, cfg.Threshold) })
	vmCfg := cfg.VM
	vmCfg.Listener = smp
	var stats vm.Stats
	id = t.layer("vm.profiled", rid, root, func() { stats, err = vm.New(prog, vmCfg).Run() })
	if err != nil {
		return nil, err
	}
	t.count(id, "instrs", int64(stats.Instructions))
	if req.Locales > 1 {
		t.count(id, "comm_runs", 1)
		t.count(id, "comm_messages", int64(stats.CommMessages))
		t.count(id, "comm_bytes", stats.CommBytes)
	}
	var prof *postmortem.Profile
	id = t.layer("postmortem", rid, root, func() {
		prof = postmortem.New(prog, analysis, smp.Spawns).Process(smp.Samples, cfg.Threshold, stats)
		prof.Dropped += smp.Dropped
	})
	t.count(id, "samples", int64(len(smp.Samples)))

	run := &blame.Result{Profile: prof, Analysis: analysis, Sampler: smp, Stats: stats}
	var text string
	var profJSON bytes.Buffer
	t.layer("views", rid, root, func() {
		switch req.View {
		case "data":
			text = views.DataCentric(prof, lim)
		case "code":
			text = views.CodeCentric(prof, lim)
		case "hybrid":
			text = views.Hybrid(prof, lim)
		case "comm":
			text = views.CommCentric(run.CommBlame(), lim)
		default:
			err = fmt.Errorf("re-drive does not cover view %q", req.View)
			return
		}
		err = prof.WriteJSON(&profJSON)
	})
	if err != nil {
		return nil, err
	}
	return &serve.Outcome{
		Text: text, ProfileJSON: profJSON.Bytes(), Output: progOut.String(),
		Stats: stats, Threshold: cfg.Threshold, Samples: prof.TotalSamples,
	}, nil
}

// buildRunner builds or looks up the native runner of one program and
// fails, instead of falling back to the interpreter, when it cannot.
func buildRunner(name, src string) (*gobe.Runner, error) {
	r, err := gobe.Build(name, src, compile.Options{})
	if err != nil {
		return nil, fmt.Errorf("native runner for %s: %w", name, err)
	}
	return r, nil
}

// inline replaces a request's bench name with the bench's source text.
// The native path takes programs as source only (super.ServeRun fails on
// a request that names a built-in bench): a runner re-normalizes the
// request it receives, and a normalized bench request carries both a
// bench name and a source, which Normalize rejects.
func inline(req *serve.Request) (*serve.Request, error) {
	if req.Bench != "" {
		src, name, err := serve.ResolveBench(req.Bench)
		if err != nil {
			return nil, err
		}
		req.Bench, req.Source, req.Name = "", src, name
	}
	return req, req.Normalize()
}

// fallbacks counts the supervisor's runs that the interpreter served
// because no runner could.
func fallbacks(sup *super.Supervisor) uint64 {
	st := sup.Stats()
	return st.Fallbacks + st.BuildFallbacks
}

// redriveNative is the supervisor's ServeRun re-driven from this package.
func redriveNative(t *tracer, sup *super.Supervisor, req *serve.Request) (*serve.Outcome, error) {
	rid, root := t.request()
	defer t.end(root)
	req, err := inline(req)
	if err != nil {
		return nil, err
	}
	var r *gobe.Runner
	t.layer("gobe.lookup", rid, root, func() { r, err = buildRunner(req.Name, req.Source) })
	if err != nil {
		return nil, err
	}
	var reply *gobert.Reply
	t.layer("super.exec", rid, root, func() {
		reply, err = sup.Exec(super.ForRunner(r), &gobert.RunSpec{Mode: "outcome", Request: req})
	})
	if err != nil {
		return nil, err
	}
	if reply.RunErr != "" {
		return nil, errors.New(reply.RunErr)
	}
	var out serve.Outcome
	if err := json.Unmarshal(reply.Outcome, &out); err != nil {
		return nil, fmt.Errorf("decoding runner outcome: %w", err)
	}
	out.ProfileJSON = reply.Profile
	return &out, nil
}

// traceLocal re-drives every pass of an in-process workload.
func traceLocal(b *bench, w *workload, td *traceData, untraced []sample) {
	i := 0
	for _, pass := range w.passes {
		t0 := time.Now()
		for _, e := range pass {
			out, err := redrive(td.tr, e.request())
			td.compare(b, e.Key, out, err, untraced[i].sum)
			i++
		}
		td.wall += time.Since(t0)
	}
}

func noteSupervisor(td *traceData, sup *super.Supervisor) {
	td.extra["super.restarts"] = float64(sup.Stats().Restarts)
	td.extra["super.fallbacks"] = float64(fallbacks(sup))
}

// traceServe reads the serve counters of the untraced replay, then
// replays seq over HTTP again and re-drives, after each response, the
// server's own lookup path on the same request: Normalize, Key,
// Cache.Get, and for a miss Journal.Append of the cached outcome.
func traceServe(b *bench, td *traceData, rig *serveRig, base serve.MetricsSnapshot, untraced []sample, seq []entry, clients int) error {
	snap, err := rig.metrics()
	if err != nil {
		return err
	}
	var hits, misses []float64
	for _, s := range untraced {
		if s.cached {
			hits = append(hits, ms(s.lat))
		} else {
			misses = append(misses, ms(s.lat))
		}
	}
	td.extra["serve.hit_rtt_ms"] = median(hits)
	td.extra["serve.miss_rtt_ms"] = median(misses)
	td.extra["serve.cache_hit_ratio"] = float64(len(hits)) / float64(len(untraced))
	td.extra["serve.executions"] = float64(snap.Sched.Executed - base.Sched.Executed)
	td.extra["serve.coalesced"] = float64(snap.Sched.Coalesced - base.Sched.Coalesced)
	td.extra["serve.shed"] = float64(sumValues(snap.Shed) - sumValues(base.Shed))

	dir, err := os.MkdirTemp(b.tmp, "redrive-")
	if err != nil {
		return err
	}
	j, err := serve.OpenJournal(filepath.Join(dir, "outcomes.journal"), func(string, *serve.Outcome) {})
	if err != nil {
		return err
	}
	_, td.wall = drive(seq, clients, func(e entry) sample {
		rid, root := td.tr.request()
		defer td.tr.end(root)
		var resp response
		var err error
		td.tr.layer("serve.http", rid, root, func() { resp, err = rig.submit(e.request()) })
		ok, why := b.verify(e.Key, resp, err)
		if ok {
			req := e.request()
			td.tr.layer("serve.normalize", rid, root, func() { err = req.Normalize() })
			var key string
			td.tr.layer("serve.key", rid, root, func() { key = req.Key() })
			var out *serve.Outcome
			var hit bool
			td.tr.layer("serve.cache_get", rid, root, func() { out, hit = rig.srv.Cache().Get(key) })
			switch {
			case err != nil:
				ok, why = false, err.Error()
			case !hit:
				ok, why = false, "not in the cache after its response"
			case outcomeDigest(out.Text, out.Output) != outcomeDigest(resp.text, resp.output):
				ok, why = false, "cached outcome differs from the HTTP response"
			case !resp.cached:
				td.tr.layer("serve.journal_append", rid, root, func() { err = j.Append(key, out) })
				if err != nil {
					ok, why = false, err.Error()
				}
			}
		}
		td.check(b, e.Key, ok, why)
		return sample{}
	})
	return j.Close()
}

func sumValues(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

// coverage re-drives a few small requests of every workload's kind, so
// that each per-layer metric is measured in every traced run: a layer
// the workload itself never calls takes its numbers from here.
func coverage(b *bench, td *traceData) error {
	for _, c := range []struct {
		e     entry
		fresh bool // the workload sends it with cold memos
	}{
		{profileEntry(programNamed("halo"), 0, "comm"), false},
		{profileEntry(programNamed("minimd"), 0, "data"), false},
		{staticProbes()[0], true},
		{staticProbes()[1], true},
	} {
		if c.fresh {
			resetMemos()
		}
		resp, err := execLocal(c.e.request())
		ok, why := b.verify(c.e.Key, resp, err)
		td.check(b, c.e.Key, ok, why)
		if c.fresh {
			resetMemos()
		}
		out, err := redrive(td.tr, c.e.request())
		td.compare(b, c.e.Key, out, err, bytesDigest(resp.text, resp.profile, resp.output))
	}
	if err := coverNative(b, td); err != nil {
		return err
	}
	warm := profileEntry(programNamed("wavefront"), 0, "data")
	rig, err := warmServe(b, []entry{warm}, 1)
	if err != nil {
		return err
	}
	base, err := rig.metrics()
	if err == nil {
		untraced, _ := drive([]entry{warm, fig1Miss(1)}, 1, func(e entry) sample { return do(b, rig.submit, e, false) })
		for _, s := range untraced {
			td.check(b, s.key, s.ok, s.why)
		}
		err = traceServe(b, td, rig, base, untraced, []entry{warm, fig1Miss(2)}, 1)
	}
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	return err
}

// spawnProbes is how many trivial runs super.spawn_ms averages.
const spawnProbes = 5

// coverNative builds fig1's runner cold into a fresh cache
// (gobe.build_s), spawns it on a trivial run (super.spawn_ms), and
// serves one fig1 request natively and on the interpreter.
func coverNative(b *bench, td *traceData) error {
	src, name, err := serve.ResolveBench("fig1")
	if err != nil {
		return err
	}
	cache, err := os.MkdirTemp(b.tmp, "gobe-")
	if err != nil {
		return err
	}
	// gobe reads its cache root from the environment only.
	prev, had := os.LookupEnv("MCHPL_GOBE_CACHE")
	os.Setenv("MCHPL_GOBE_CACHE", cache)
	var r *gobe.Runner
	rid, root := td.tr.request()
	td.tr.layer("gobe.build", rid, root, func() { r, err = buildRunner(name, src) })
	td.tr.end(root)
	if had {
		os.Setenv("MCHPL_GOBE_CACHE", prev)
	} else {
		os.Unsetenv("MCHPL_GOBE_CACHE")
	}
	if err != nil {
		return err
	}

	sup := super.New(super.Options{})
	spec := &gobert.RunSpec{Mode: "run"}
	want, err := gobe.InterpReply(name, src, compile.Options{}, spec)
	if err != nil {
		return err
	}
	for i := 0; i < spawnProbes; i++ {
		rid, root := td.tr.request()
		var got *gobert.Reply
		td.tr.layer("super.spawn", rid, root, func() { got, err = sup.Exec(super.ForRunner(r), spec) })
		td.tr.end(root)
		ok, why := err == nil, ""
		if err != nil {
			why = err.Error()
		} else if d := gobe.Diff(want, got); len(d) > 0 {
			ok, why = false, fmt.Sprint(d)
		}
		td.check(b, "fig1 run", ok, why)
	}

	e := fig1Miss(1)
	t0 := time.Now()
	out, err := redriveNative(td.tr, sup, e.request())
	nativeT := time.Since(t0)
	if err == nil {
		ok, why := b.verify(e.Key, response{text: out.Text, output: out.Output}, nil)
		td.check(b, e.Key, ok, why)
	} else {
		td.check(b, e.Key, false, err.Error())
	}
	t0 = time.Now()
	resp, err := execLocal(e.request())
	td.extra["native.speedup_x"] = time.Since(t0).Seconds() / nativeT.Seconds()
	ok, why := b.verify(e.Key, resp, err)
	td.check(b, e.Key, ok, why)
	noteSupervisor(td, sup)
	return nil
}

// perLayer lists every per-layer metric: name, unit, and which direction
// is better. BENCHMARK.json repeats it.
var perLayer = []struct{ name, unit, better string }{
	{"vm.calibrate_ms", "ms", "lower"},
	{"vm.profiled_ms", "ms", "lower"},
	{"vm.instrs", "count", "lower"},
	{"vm.ns_per_instr", "ns", "lower"},
	{"vm.alloc_mb", "MiB", "lower"},
	{"vm.allocs", "count", "lower"},
	{"sampler.samples", "count", "lower"},
	{"postmortem.ms", "ms", "lower"},
	{"postmortem.us_per_sample", "us", "lower"},
	{"postmortem.alloc_mb", "MiB", "lower"},
	{"compile.ms", "ms", "lower"},
	{"compile.alloc_mb", "MiB", "lower"},
	{"core.ms", "ms", "lower"},
	{"analyze.ms", "ms", "lower"},
	{"cost.ms", "ms", "lower"},
	{"cost.alloc_mb", "MiB", "lower"},
	{"cost.walk_ok_ratio", "1", "higher"},
	{"views.ms", "ms", "lower"},
	{"comm.messages", "count", "lower"},
	{"comm.bytes", "B", "lower"},
	{"serve.normalize_us", "us", "lower"},
	{"serve.key_us", "us", "lower"},
	{"serve.cache_get_us", "us", "lower"},
	{"serve.journal_append_us", "us", "lower"},
	{"serve.hit_rtt_ms", "ms", "lower"},
	{"serve.miss_rtt_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "1", "higher"},
	{"serve.executions", "count", "lower"},
	{"serve.coalesced", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"gobe.build_s", "s", "lower"},
	{"super.spawn_ms", "ms", "lower"},
	{"super.exec_ms", "ms", "lower"},
	{"native.speedup_x", "x", "higher"},
	{"super.restarts", "count", "lower"},
	{"super.fallbacks", "count", "lower"},
	{"runtime.gc_cycles_per_req", "1", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// layerMetrics derives the per-layer values one traced replay measured.
// Times are self time per call; counts and allocations are totals over
// the replay. A metric whose layer was never called is left out.
func layerMetrics(td *traceData) map[string]float64 {
	type agg struct {
		n             int
		self          int64
		alloc, allocs uint64
		counts        map[string]int64
	}
	spans := td.tr.spans
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	aggs := map[string]*agg{}
	for i, s := range spans {
		a := aggs[s.Name]
		if a == nil {
			a = &agg{counts: map[string]int64{}}
			aggs[s.Name] = a
		}
		a.n++
		a.self += self[i]
		a.alloc += s.Alloc
		a.allocs += s.Allocs
		for k, v := range s.Counts {
			a.counts[k] += v
		}
	}
	const mib = 1 << 20
	m := map[string]float64{}
	mean := func(metric, layer string, unit time.Duration) {
		if a := aggs[layer]; a != nil {
			m[metric] = float64(a.self) / float64(a.n) / float64(unit)
		}
	}
	if c, p := aggs["vm.calibrate"], aggs["vm.profiled"]; c != nil && p != nil {
		mean("vm.calibrate_ms", "vm.calibrate", time.Millisecond)
		mean("vm.profiled_ms", "vm.profiled", time.Millisecond)
		instrs := c.counts["instrs"] + p.counts["instrs"]
		m["vm.instrs"] = float64(instrs)
		m["vm.ns_per_instr"] = float64(c.self+p.self) / float64(instrs)
		m["vm.alloc_mb"] = float64(c.alloc+p.alloc) / mib
		m["vm.allocs"] = float64(c.allocs + p.allocs)
		if p.counts["comm_runs"] > 0 {
			m["comm.messages"] = float64(p.counts["comm_messages"])
			m["comm.bytes"] = float64(p.counts["comm_bytes"])
		}
	}
	if a := aggs["postmortem"]; a != nil {
		samples := a.counts["samples"]
		m["sampler.samples"] = float64(samples)
		mean("postmortem.ms", "postmortem", time.Millisecond)
		m["postmortem.us_per_sample"] = float64(a.self) / float64(samples) / 1e3
		m["postmortem.alloc_mb"] = float64(a.alloc) / mib
	}
	if a := aggs["compile"]; a != nil {
		mean("compile.ms", "compile", time.Millisecond)
		m["compile.alloc_mb"] = float64(a.alloc) / mib
	}
	mean("core.ms", "core", time.Millisecond)
	mean("analyze.ms", "analyze", time.Millisecond)
	if a := aggs["cost"]; a != nil {
		mean("cost.ms", "cost", time.Millisecond)
		m["cost.alloc_mb"] = float64(a.alloc) / mib
		if n := a.counts["walk_attempts"]; n > 0 {
			m["cost.walk_ok_ratio"] = float64(a.counts["walk_ok"]) / float64(n)
		}
	}
	mean("views.ms", "views", time.Millisecond)
	mean("serve.normalize_us", "serve.normalize", time.Microsecond)
	mean("serve.key_us", "serve.key", time.Microsecond)
	mean("serve.cache_get_us", "serve.cache_get", time.Microsecond)
	mean("serve.journal_append_us", "serve.journal_append", time.Microsecond)
	mean("gobe.build_s", "gobe.build", time.Second)
	mean("super.spawn_ms", "super.spawn", time.Millisecond)
	mean("super.exec_ms", "super.exec", time.Millisecond)
	for k, v := range td.extra {
		m[k] = v
	}
	return m
}

// tracedRun replays the sequence untraced, then re-drives it traced, and
// reports the per-layer metrics.
func tracedRun(b *bench, w *workload) (*report, error) {
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var untraced []sample
	var untracedWall time.Duration
	for _, p := range w.replay(b, true) {
		untraced = append(untraced, p.samples...)
		untracedWall += p.wall
	}
	runtime.ReadMemStats(&gc1)

	td := newTraceData()
	for _, s := range untraced {
		td.check(b, s.key, s.ok, s.why)
	}
	if err := w.trace(b, td, untraced); err != nil {
		return nil, err
	}
	td.extra["runtime.gc_cycles_per_req"] = float64(gc1.NumGC-gc0.NumGC) / float64(len(untraced))
	td.extra["trace.overhead_ms"] = ms(td.wall - untracedWall)
	b.logf("untraced replay %.3f s, traced replay %.3f s", untracedWall.Seconds(), td.wall.Seconds())

	cov := newTraceData()
	if err := coverage(b, cov); err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	own, fallback := layerMetrics(td), layerMetrics(cov)
	metrics := map[string]metric{}
	var borrowed []string
	for _, l := range perLayer {
		v, ok := own[l.name]
		if !ok {
			if v, ok = fallback[l.name]; !ok {
				return nil, fmt.Errorf("no measurement of %s", l.name)
			}
			borrowed = append(borrowed, l.name)
		}
		metrics[l.name] = metric{v, l.unit}
	}
	b.logf("measured on the coverage requests (layers %s does not call): %v", b.name, borrowed)

	path, err := writeSpans(b, map[string][]span{b.name: td.tr.spans, "coverage": cov.tr.spans})
	if err != nil {
		return nil, err
	}
	b.logf("spans: %d of %s, %d of coverage, in %s", len(td.tr.spans), b.name, len(cov.tr.spans), path)
	failed := td.failed + cov.failed
	return &report{
		Correct:   failed == 0,
		Attempted: td.attempted + cov.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}
