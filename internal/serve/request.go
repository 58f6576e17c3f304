// Package serve is the blame-as-a-service layer: it exposes the full
// compile → analyze → run → sample → postmortem pipeline as concurrent
// profiling sessions behind an HTTP/JSON API (cmd/blamed). The package
// is organized as
//
//   - Request / Execute   the one profiling code path, shared byte-for-
//     byte with cmd/blame (the CLI is a thin shell over Execute)
//   - Cache               a sharded, content-addressed, bounded LRU over
//     finished Outcomes, generalizing compile.SourceCached /
//     core.AnalyzeCached to whole pipeline results
//   - Scheduler           a priority job queue with per-session
//     deadlines, cancellation, and request batching (identical
//     submissions coalesce into one pipeline execution)
//   - Session             the per-submission state machine with
//     streaming progress events (sampler progress, incremental blame
//     ranks)
//   - Server              the HTTP handlers, SSE/NDJSON streaming and
//     the /metrics observability surface
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/analyze"
	"repro/internal/benchprog"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
)

// Byte/size bounds protecting a long-running server from abusive
// requests. They are generous for every embedded benchmark.
const (
	MaxSourceBytes = 1 << 20 // 1 MiB of MiniChapel source
	MaxLocales     = 64
	MaxCores       = 512
	MaxLimit       = 10_000
)

// Request is the profiling request schema — the knobs of cmd/blame,
// JSON-addressable. Exactly one of Bench or Source selects the program.
// Priority, DeadlineMs and NoCache steer scheduling only and are
// excluded from the content-addressed cache key.
//
// Request is also the one run spec of the repository: VMConfig and
// Injector are the only code that turns run knobs into VM state, for
// the CLIs, the native runner's wire protocol and the experiment
// harness alike.
type Request struct {
	// Bench names a built-in benchmark (see Benches). Mutually exclusive
	// with Source.
	Bench string `json:"bench,omitempty"`
	// Source is inline MiniChapel source text.
	Source string `json:"source,omitempty"`
	// Name is the display name for inline source (default "prog.mchpl").
	Name string `json:"name,omitempty"`
	// Configs overrides `config const` values (./prog --name=value).
	Configs map[string]string `json:"configs,omitempty"`

	// Locales / Cores shape the simulated machine (defaults 1 / 12).
	Locales int `json:"locales,omitempty"`
	Cores   int `json:"cores,omitempty"`

	// View selects the rendering: data | code | hybrid | all | baseline |
	// comm | static | lint-json (default data). Lint mirrors the CLI's
	// -lint: it runs the static diagnostics and prints the blame-guided
	// advisor instead of View (or appends the report under View "static").
	View  string `json:"view,omitempty"`
	Lint  bool   `json:"lint,omitempty"`
	Limit int    `json:"limit,omitempty"`

	// Threshold is the PMU overflow threshold (0 = auto-scale via a
	// calibration run, like the CLI).
	Threshold uint64 `json:"threshold,omitempty"`
	// Skid injects PMU interrupt skid (instructions).
	Skid int `json:"skid,omitempty"`
	// PerLocale additionally renders per-locale profiles.
	PerLocale bool `json:"per_locale,omitempty"`
	// SampleBuffer bounds the monitor's sample ring buffer (0 =
	// unbounded).
	SampleBuffer int `json:"sample_buffer,omitempty"`

	// Analysis ablation knobs (CLI -no-implicit / -no-interproc / -lines).
	NoImplicit  bool `json:"no_implicit,omitempty"`
	NoInterproc bool `json:"no_interproc,omitempty"`
	Lines       bool `json:"lines,omitempty"`

	// Modeled communication runtime knobs.
	CommAggregate bool `json:"comm_aggregate,omitempty"`
	// CommCache is the per-locale software-cache capacity in elements:
	// 0 selects comm.DefaultCacheCap, negative disables caching. Only
	// meaningful with CommAggregate.
	CommCache int `json:"comm_cache,omitempty"`
	// CommInspector enables the inspector–executor path for irregular
	// (data-dependent subscript) sites; implies CommAggregate.
	CommInspector   bool `json:"comm_inspector,omitempty"`
	NoOwnerComputes bool `json:"no_owner_computes,omitempty"`

	// Per-session fault injection (CLI -fault-spec / -fault-seed).
	FaultSpec string `json:"fault_spec,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	// Scheduling-only fields (not cache-keyed).
	Priority   int   `json:"priority,omitempty"`
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	NoCache    bool  `json:"no_cache,omitempty"`
}

// Views the server accepts (CLI -view values plus the execution-free
// modes).
var validViews = map[string]bool{
	"data": true, "code": true, "hybrid": true, "all": true,
	"baseline": true, "comm": true, "static": true, "lint-json": true,
}

// Normalize validates the request, resolves a bench name to its source
// text, and fills defaults, so that two requests meaning the same thing
// produce the same Key. It mutates the receiver.
func (r *Request) Normalize() error {
	if r.Bench != "" {
		src, name, err := ResolveBench(r.Bench)
		if err != nil {
			return err
		}
		// A normalized bench request already carries the resolved
		// source; accepting it keeps Normalize idempotent.
		if r.Source != "" && r.Source != src {
			return fmt.Errorf("exactly one of bench or source must be set")
		}
		r.Source, r.Name = src, name
	} else if r.Source == "" {
		return fmt.Errorf("exactly one of bench or source must be set")
	}
	if len(r.Source) > MaxSourceBytes {
		return fmt.Errorf("source too large (%d bytes, max %d)", len(r.Source), MaxSourceBytes)
	}
	if r.Name == "" {
		r.Name = "prog.mchpl"
	}
	if r.Locales == 0 {
		r.Locales = 1
	}
	if r.Locales < 1 || r.Locales > MaxLocales {
		return fmt.Errorf("locales %d out of range [1, %d]", r.Locales, MaxLocales)
	}
	if r.Cores == 0 {
		r.Cores = 12
	}
	if r.Cores < 1 || r.Cores > MaxCores {
		return fmt.Errorf("cores %d out of range [1, %d]", r.Cores, MaxCores)
	}
	if r.View == "" {
		r.View = "data"
	}
	if !validViews[r.View] {
		return fmt.Errorf("unknown view %q", r.View)
	}
	// Limit 0 selects the default; -1 means unlimited (the CLI's
	// historical `-limit 0`).
	if r.Limit == 0 {
		r.Limit = 20
	}
	if r.Limit != -1 && (r.Limit < 1 || r.Limit > MaxLimit) {
		return fmt.Errorf("limit %d out of range [1, %d] (or -1 for unlimited)", r.Limit, MaxLimit)
	}
	if r.Skid < 0 || r.SampleBuffer < 0 {
		return fmt.Errorf("skid and sample_buffer must be non-negative")
	}
	r.CommAggregate = r.commAggregate()
	if r.CommAggregate && r.CommCache == 0 {
		r.CommCache = comm.DefaultCacheCap
	}
	if r.FaultSpec != "" {
		if _, err := fault.ParseSpec(r.FaultSpec); err != nil {
			return err
		}
		r.FaultSeed = r.faultSeed()
	}
	if r.DeadlineMs < 0 {
		return fmt.Errorf("deadline_ms must be non-negative")
	}
	return nil
}

// ResolveBench maps a built-in benchmark name to its embedded source.
// Shared by cmd/blame (-bench) and the server's request schema, so both
// paths profile the identical program text.
func ResolveBench(name string) (src, progName string, err error) {
	p, ok := benchprog.Builtin(name)
	if !ok {
		return "", "", fmt.Errorf("unknown benchmark %q", name)
	}
	return p.Source, p.Name, nil
}

// commAggregate reports whether the run uses the aggregation runtime:
// the inspector–executor rides on it, so the inspector implies it.
func (r *Request) commAggregate() bool { return r.CommAggregate || r.CommInspector }

// faultSeed is the injector seed: 0 reads as 1 on every entry point.
func (r *Request) faultSeed() uint64 {
	if r.FaultSeed == 0 {
		return 1
	}
	return r.FaultSeed
}

// VMConfig derives the VM configuration the request describes. A zero
// field means what Normalize would fill in (12 cores, 1 locale, the
// default cache capacity), so VMConfig gives the same result on a raw
// request and on its normalized form. The comm plan is derived for any
// aggregated or multi-locale run: it also powers the owner-computes
// violation counter. Stdout, the fault injector (see Injector) and
// cancellation are left for the caller to attach.
func (r *Request) VMConfig(prog *ir.Program) vm.Config {
	cfg := vm.DefaultConfig()
	if r.Cores > 0 {
		cfg.NumCores = r.Cores
	}
	if r.Locales > 0 {
		cfg.NumLocales = r.Locales
	}
	cfg.MaxCycles = 10_000_000_000
	cfg.Configs = r.Configs
	cfg.NoOwnerComputes = r.NoOwnerComputes
	if r.commAggregate() {
		cfg.CommAggregate = true
		cfg.CommCacheCap = r.CommCache
		cfg.CommInspector = r.CommInspector
	}
	if cfg.CommAggregate || cfg.NumLocales > 1 {
		cfg.CommPlan = analyze.CommPlan(prog)
	}
	return cfg
}

// Injector returns a fresh fault injector for the request's fault spec
// and seed, or nil when the request injects no faults. Normalize and
// BindRunFlags reject unparsable specs; one that skipped both also gets
// nil.
func (r *Request) Injector() *fault.Injector {
	if r.FaultSpec == "" {
		return nil
	}
	spec, err := fault.ParseSpec(r.FaultSpec)
	if err != nil {
		return nil
	}
	return fault.NewInjector(spec, r.faultSeed())
}

// BindRunFlags declares the run-shape flags cmd/mchpl and cmd/blame
// share (-cores -locales -comm-aggregate -comm-inspector -comm-cache
// -no-owner-computes -fault-spec -fault-seed) on fs, writing into r.
// Call the returned function after fs.Parse: it applies the command-line
// meaning of -comm-cache and validates the fault spec.
func BindRunFlags(fs *flag.FlagSet, r *Request) func() error {
	fs.IntVar(&r.Cores, "cores", 12, "simulated cores per locale")
	fs.IntVar(&r.Locales, "locales", 1, "simulated locales")
	fs.BoolVar(&r.CommAggregate, "comm-aggregate", false, "model the communication aggregation runtime (halo prefetch, run coalescing, software cache)")
	fs.BoolVar(&r.CommInspector, "comm-inspector", false, "model the inspector-executor path for irregular accesses (implies -comm-aggregate): coalesced gathers/scatters, memoized schedules, selective replication")
	cache := fs.Int("comm-cache", comm.DefaultCacheCap, "per-locale software-cache capacity in elements (0 = no cache)")
	fs.BoolVar(&r.NoOwnerComputes, "no-owner-computes", false, "disable owner-computes forall scheduling (chunks inherit the spawner's locale)")
	fs.StringVar(&r.FaultSpec, "fault-spec", "", "inject deterministic comm faults, e.g. loss=0.01,dup=0.005,delay=0.1:3xCommLatency,locale-slow=2:4x,locale-fail=3@tick500")
	fs.Uint64Var(&r.FaultSeed, "fault-seed", 1, "seed for the fault injector's PRNG (0 reads as 1)")
	return func() error {
		r.CommCache = 0
		if r.commAggregate() {
			r.CommCache = *cache
			if *cache <= 0 {
				r.CommCache = -1 // 0 on the command line means "no cache"
			}
		}
		_, err := fault.ParseSpec(r.FaultSpec)
		return err
	}
}

// ParseConfigs extracts the Chapel-style config const overrides
// (--name=value) among a command line's positional arguments.
func ParseConfigs(args []string) map[string]string {
	out := make(map[string]string)
	for _, a := range args {
		if !strings.HasPrefix(a, "--") {
			continue
		}
		kv := strings.SplitN(strings.TrimPrefix(a, "--"), "=", 2)
		if len(kv) == 2 {
			out[kv[0]] = kv[1]
		}
	}
	return out
}

// Key returns the content-addressed cache key of a normalized request:
// a hash over the source text and every knob that can change the
// outcome. Comm mode, fault spec/seed, locale count, analysis options
// and the view all feed the key, so no two requests with different
// semantics can ever alias one cache entry (the server-level analogue of
// the compile.SourceCached / core.AnalyzeCached key audit).
func (r *Request) Key() string {
	h := sha256.New()
	var n, line []byte
	write := func(p []byte) {
		n = binary.LittleEndian.AppendUint64(n[:0], uint64(len(p)))
		h.Write(n)
		h.Write(p)
	}
	put := func(parts ...string) {
		for _, p := range parts {
			// Hash the string's bytes in place rather than copy the
			// source on every request: an io.Writer may neither modify
			// nor retain what it is given.
			write(unsafe.Slice(unsafe.StringData(p), len(p)))
		}
	}
	put("v1", r.Name, r.Source, r.View, r.FaultSpec)
	line = fmt.Appendf(line[:0], "%d|%d|%d|%d|%d|%d|%d|%d",
		r.Locales, r.Cores, r.Limit, r.Threshold, r.Skid,
		r.SampleBuffer, r.CommCache, r.FaultSeed)
	write(line)
	line = fmt.Appendf(line[:0], "%t|%t|%t|%t|%t|%t|%t|%t|%t",
		r.Lint, r.PerLocale, r.NoImplicit, r.NoInterproc, r.Lines,
		r.CommAggregate, r.NoOwnerComputes, r.FaultSpec != "",
		r.CommInspector)
	write(line)
	// Canonical config order: maps iterate randomly.
	keys := make([]string, 0, len(r.Configs))
	for k := range r.Configs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		put(k, r.Configs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Summary is a short human-readable request descriptor for listings and
// logs.
func (r *Request) Summary() string {
	var b strings.Builder
	b.WriteString(r.Name)
	fmt.Fprintf(&b, " view=%s", r.View)
	if r.Lint {
		b.WriteString(" lint")
	}
	if r.Locales > 1 {
		fmt.Fprintf(&b, " locales=%d", r.Locales)
	}
	if r.CommAggregate {
		b.WriteString(" comm-aggregate")
	}
	if r.CommInspector {
		b.WriteString(" comm-inspector")
	}
	if r.FaultSpec != "" {
		fmt.Fprintf(&b, " fault=%s", r.FaultSpec)
	}
	return b.String()
}
