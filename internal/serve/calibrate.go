package serve

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/vm"
)

// An unmonitored run's stats depend only on the program and the run
// shape, so they are memoized: the views of one run, and any other
// request with the same shape, share one calibration pass, and a program
// the experiment harness both times and profiles runs unmonitored once.
// Like compile.SourceCached and core.AnalyzeCached, the memo keys on
// program identity.

// calibrationKey is a canonical run shape: every vm.Config field that can
// change a run's stats. Left out are Stdout (discarded), Cancel (a
// cancelled run errors, and errors are not memoized), and Fault and
// Listener (a run carrying either bypasses the memo).
type calibrationKey struct {
	prog            *ir.Program
	cores           int
	locales         int
	configs         string // sorted, quoted name=value pairs
	maxCycles       uint64
	commAggregate   bool
	commCacheCap    int
	commInspector   bool
	commPlan        bool // the plan is a pure function of the program
	noOwnerComputes bool
}

func newCalibrationKey(prog *ir.Program, cfg *vm.Config) calibrationKey {
	names := make([]string, 0, len(cfg.Configs))
	for name := range cfg.Configs {
		names = append(names, name)
	}
	sort.Strings(names)
	var configs strings.Builder
	for _, name := range names {
		configs.WriteString(strconv.Quote(name))
		configs.WriteByte('=')
		configs.WriteString(strconv.Quote(cfg.Configs[name]))
		configs.WriteByte(';')
	}
	return calibrationKey{
		prog:            prog,
		cores:           cfg.NumCores,
		locales:         cfg.NumLocales,
		configs:         configs.String(),
		maxCycles:       cfg.MaxCycles,
		commAggregate:   cfg.CommAggregate,
		commCacheCap:    cfg.CommCacheCap,
		commInspector:   cfg.CommInspector,
		commPlan:        cfg.CommPlan != nil,
		noOwnerComputes: cfg.NoOwnerComputes,
	}
}

// calibrationRuns counts the unmonitored runs actually executed.
var calibrationRuns atomic.Int64

// unmonitored is the process-wide memo of unmonitored runs.
var unmonitored = memo.New[calibrationKey, vm.Stats]("serve.unmonitored")

// Unmonitored returns the stats of one unmonitored run of prog under cfg,
// from the memo when the run shape has run before. It is the one
// memoized unmonitored run: Profile calibrates its sampling threshold
// with it and the experiment harness times programs with it. The Stats
// are shared and must not be mutated. A run with a Fault or a Listener
// always executes.
func Unmonitored(prog *ir.Program, cfg vm.Config) (vm.Stats, error) {
	cfg.Stdout = io.Discard // callers need the stats only; a profiled run re-prints the output
	run := func() (vm.Stats, error) {
		calibrationRuns.Add(1)
		return vm.New(prog, cfg).Run()
	}
	if cfg.Fault != nil || cfg.Listener != nil {
		return run()
	}
	return unmonitored.Get(newCalibrationKey(prog, &cfg), run)
}
