package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/serve"
)

// program is one catalogue program: a built-in benchmark, the simulated
// machine it runs on, and the `config const` whose value sets its size.
type program struct {
	bench     string
	locales   int
	aggregate bool
	inspector bool
	knob      string
	// sizes are the knob values profile requests run at.
	sizes [3]int
}

// programs is the stratified catalogue. Six single-locale kernels and
// four 4-locale PGAS programs (two with halo aggregation, two with the
// inspector-executor) so the comm cost model is exercised on every run.
// Sizes keep the median profile request at 25 to 60 ms on a 2-core
// machine, depending on how busy its host is, so a pass of 120 requests
// takes 4 to 10 s and leaves 12 samples beyond its p90.
var programs = []program{
	{bench: "minimd", locales: 1, knob: "nBins", sizes: [3]int{6, 9, 12}},
	{bench: "minimd_opt", locales: 1, knob: "nBins", sizes: [3]int{6, 9, 12}},
	{bench: "clomp", locales: 1, knob: "CLOMP_numParts", sizes: [3]int{2, 4, 6}},
	{bench: "clomp_opt", locales: 1, knob: "CLOMP_numParts", sizes: [3]int{2, 4, 6}},
	{bench: "lulesh", locales: 1, knob: "numElems", sizes: [3]int{4, 6, 8}},
	{bench: "lulesh_best", locales: 1, knob: "numElems", sizes: [3]int{4, 6, 8}},
	{bench: "halo", locales: 4, aggregate: true, knob: "n", sizes: [3]int{128, 192, 256}},
	{bench: "wavefront", locales: 4, aggregate: true, knob: "n", sizes: [3]int{32, 48, 64}},
	{bench: "gather", locales: 4, inspector: true, knob: "n", sizes: [3]int{256, 384, 512}},
	{bench: "spmv", locales: 4, inspector: true, knob: "n", sizes: [3]int{96, 128, 160}},
}

// profileViews rotate over every size of every program.
var profileViews = []string{"data", "code", "hybrid", "comm"}

// entry is one request shape of the catalogue. Key names its row in the
// digest table; two entries with the same Key must produce the same
// outcome text and program output.
type entry struct {
	Key string
	Req *serve.Request
}

// request returns a fresh copy of the entry's request (Normalize mutates
// its receiver, and a Configs map must not be shared across requests).
func (e entry) request() *serve.Request {
	r := *e.Req
	if e.Req.Configs != nil {
		r.Configs = make(map[string]string, len(e.Req.Configs))
		for k, v := range e.Req.Configs {
			r.Configs[k] = v
		}
	}
	return &r
}

func (p program) shape(view string) serve.Request {
	return serve.Request{
		Bench:         p.bench,
		Locales:       p.locales,
		CommAggregate: p.aggregate,
		CommInspector: p.inspector,
		View:          view,
	}
}

// profileEntry is program p at size index s, rendered with view.
func profileEntry(p program, s int, view string) entry {
	r := p.shape(view)
	r.Configs = map[string]string{p.knob: fmt.Sprint(p.sizes[s])}
	return entry{Key: fmt.Sprintf("run/%s/%s=%d/%s", p.bench, p.knob, p.sizes[s], view), Req: &r}
}

// profileEntries is the profile catalogue: every program at
// every size under every view, 120 entries.
func profileEntries() []entry {
	var out []entry
	for _, p := range programs {
		for s := range p.sizes {
			for _, v := range profileViews {
				out = append(out, profileEntry(p, s, v))
			}
		}
	}
	return out
}

// staticProbes are the execution-free requests every traced run
// re-drives for the compile, core, analyze and cost layers. Each carries
// its program's source with the size knob's default rewritten, so with
// the memos emptied it is paid for as a first request of a new source: a
// static prediction of 4-locale gather (a cost walk) and clomp's
// diagnostics as JSON.
func staticProbes() []entry {
	return []entry{staticProbe("gather", 400, "static"), staticProbe("clomp", 12, "lint-json")}
}

func staticProbe(bench string, v int, view string) entry {
	p := programNamed(bench)
	src, name, err := serve.ResolveBench(p.bench)
	if err != nil {
		panic(err) // the catalogue names only built-in benchmarks
	}
	r := p.shape(view)
	r.Bench = ""
	r.Name = name
	r.Source = rewriteDefault(src, p.knob, v)
	return entry{Key: fmt.Sprintf("static/%s/%s=%d/%s", bench, p.knob, v, view), Req: &r}
}

// programNamed is the catalogue program of a built-in bench.
func programNamed(bench string) program {
	for _, p := range programs {
		if p.bench == bench {
			return p
		}
	}
	panic("no catalogue program " + bench)
}

// progOf is the catalogue program a digest Key belongs to.
func progOf(key string) string {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) < 2 {
		return key
	}
	return parts[1]
}

// rewriteDefault replaces the default of `config const knob = ...;`.
func rewriteDefault(src, knob string, v int) string {
	decl := "config const " + knob + " = "
	i := strings.Index(src, decl)
	if i < 0 {
		panic(fmt.Sprintf("no %q in catalogue source", decl))
	}
	j := strings.IndexByte(src[i:], ';')
	return src[:i] + decl + fmt.Sprint(v) + src[i+j:]
}

// serveWarmEntries are the keys the serve workload's set-up puts in the
// outcome cache: the eight requests of the repository's own load test
// (loadMix in internal/exp/loadtest.go), which together span every
// cache-key dimension: view, locales, comm mode and fault injection.
// Their order is their Zipf rank.
func serveWarmEntries() []entry {
	return []entry{
		{"serve/fig1/data", &serve.Request{Bench: "fig1", View: "data"}},
		{"serve/fig1/code", &serve.Request{Bench: "fig1", View: "code"}},
		{"serve/fig1/hybrid", &serve.Request{Bench: "fig1", View: "hybrid"}},
		{"serve/fig1/static", &serve.Request{Bench: "fig1", View: "static"}},
		{"serve/wavefront/data", &serve.Request{Bench: "wavefront", View: "data"}},
		{"serve/halo/data/locales=2", &serve.Request{Bench: "halo", View: "data", Locales: 2}},
		{"serve/halo/comm/locales=2/aggregate", &serve.Request{Bench: "halo", View: "comm", Locales: 2, CommAggregate: true}},
		{"serve/fig1/data/fault", &serve.Request{Bench: "fig1", View: "data", FaultSpec: "delay=0.05:2xCommLatency", FaultSeed: 7}},
	}
}

// Serve traffic per pass has the miss share of the repository's load
// test: by default exp.LoadTest sends 240 requests over its 8 unique
// ones, so 8 of every 240 requests (1 in 30) miss the cache and the rest
// hit it. The hits are split over the warm keys by fixed Zipf(zipfS)
// counts; zipfS is the middle of the range of exponents (0.64 to 0.83)
// that Breslau et al. measured on six web proxy traces ("Web Caching and
// Zipf-like Distributions: Evidence and Implications", INFOCOM 1999).
// The misses are never-seen fig1 requests.
const (
	serveRequestsPerPass = 100000
	serveMissesPerPass   = serveRequestsPerPass * 8 / 240
	serveHitsPerPass     = serveRequestsPerPass - serveMissesPerPass
	zipfS                = 0.75
)

// fig1Miss is the i-th never-seen request (i >= 1). fig1's outcome shows
// no rows and its PMU threshold sits at the floor, so its bytes depend on
// neither limit nor cores, while both feed the cache key. It shares its
// digest row with the warm fig1 data request; cores stay below the
// default of 12 for the first 110000 misses, so no miss has a warm key.
func fig1Miss(i int) entry {
	i--
	return entry{Key: "serve/fig1/data", Req: &serve.Request{
		Bench: "fig1", View: "data",
		Limit: 1 + i%serve.MaxLimit, Cores: 1 + i/serve.MaxLimit,
	}}
}

// zipfCounts splits n lookups over k ranks in proportion to 1/(rank+1)^s,
// rounding so the counts sum to n exactly.
func zipfCounts(n, k int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	counts := make([]int, k)
	left := n
	for i := range counts {
		counts[i] = int(float64(n) * w[i] / sum)
		left -= counts[i]
	}
	for i := 0; left > 0; i = (i + 1) % k {
		counts[i]++
		left--
	}
	return counts
}

// servePasses is one run's serve traffic: passes passes, each with the
// same fixed hit counts per warm key and misses of its own, numbered from
// firstMiss on so that a second sequence in the same process can stay
// never-seen. The seed only shuffles each pass.
func servePasses(seed int64, passes, firstMiss int) [][]entry {
	warm := serveWarmEntries()
	counts := zipfCounts(serveHitsPerPass, len(warm), zipfS)
	rng := rand.New(rand.NewSource(seed))
	out := make([][]entry, passes)
	for p := range out {
		var pass []entry
		for i, c := range counts {
			for j := 0; j < c; j++ {
				pass = append(pass, warm[i])
			}
		}
		for j := 0; j < serveMissesPerPass; j++ {
			pass = append(pass, fig1Miss(firstMiss+p*serveMissesPerPass+j))
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		out[p] = pass
	}
	return out
}

// sequence is passes passes over the catalogue, each holding every entry
// once in an order shuffled by the seed: the multiset of requests depends
// on the catalogue and passes only, so every seed does identical work.
func sequence(cat []entry, seed int64, passes int) [][]entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]entry, passes)
	for p := range out {
		pass := append([]entry(nil), cat...)
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		out[p] = pass
	}
	return out
}
