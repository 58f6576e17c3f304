package serve

import (
	"errors"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
)

// A calibration run's cycle count depends only on the program and the
// run shape, so Profile memoizes it: the views of one run, and any other
// request with the same shape, share one unsampled pass. The memo sits
// beside compile.SourceCached and core.AnalyzeCached and, like them,
// keys on program identity.

// calibrationMemoMax bounds the memo, so a daemon fed arbitrary configs
// cannot grow it without limit.
const calibrationMemoMax = 4096

// calibrationKey is a canonical run shape: every vm.Config field that can
// change a run's cycle count. Left out are Stdout (discarded), Cancel (a
// cancelled run errors, and errors are not memoized), and Fault and
// Listener (a run carrying either bypasses the memo).
type calibrationKey struct {
	prog            *ir.Program
	cores           int
	locales         int
	dataPar         int
	configs         string // sorted, quoted name=value pairs
	maxCycles       uint64
	clockHz         float64
	costs           vm.CostModel
	quantum         int
	commAggregate   bool
	commCacheCap    int
	commInspector   bool
	commPlan        bool // the plan is a pure function of the program
	noOwnerComputes bool
	commRetry       fault.RetryPolicy
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
		dataPar:         cfg.DataParTasksPerLocale,
		configs:         configs.String(),
		maxCycles:       cfg.MaxCycles,
		clockHz:         cfg.ClockHz,
		costs:           cfg.Costs,
		quantum:         cfg.Quantum,
		commAggregate:   cfg.CommAggregate,
		commCacheCap:    cfg.CommCacheCap,
		commInspector:   cfg.CommInspector,
		commPlan:        cfg.CommPlan != nil,
		noOwnerComputes: cfg.NoOwnerComputes,
		commRetry:       cfg.CommRetry,
	}
}

// calibrationRuns counts the calibration runs actually executed.
var calibrationRuns atomic.Int64

// calibrations is the process-wide calibration memo.
var calibrations = newCalibrationMemo()

// calibrate returns the total cycles of one unmonitored run of prog
// under cfg, from the memo when the run shape has been calibrated before.
func calibrate(prog *ir.Program, cfg vm.Config) (uint64, error) {
	cfg.Stdout = io.Discard // the profiled run re-prints everything
	run := func() (uint64, error) {
		calibrationRuns.Add(1)
		st, err := vm.New(prog, cfg).Run()
		return st.TotalCycles, err
	}
	if cfg.Fault != nil || cfg.Listener != nil {
		return run()
	}
	return calibrations.cycles(newCalibrationKey(prog, &cfg), run)
}

type calibrationEntry struct {
	once   sync.Once
	cycles uint64
	err    error
}

// calibrationMemo maps run shapes to calibrated cycle counts. Concurrent
// lookups of one key run once; failed runs are dropped, never memoized.
type calibrationMemo struct {
	mu      sync.Mutex
	entries map[calibrationKey]*calibrationEntry
}

func newCalibrationMemo() *calibrationMemo {
	return &calibrationMemo{entries: make(map[calibrationKey]*calibrationEntry)}
}

// errCalibrationPanic marks an entry whose run panicked: callers up the
// stack may recover (internal/exp does), so the entry must be
// dropped like any failed run rather than left holding zero cycles.
var errCalibrationPanic = errors.New("calibration run panicked")

// cycles returns k's memoized cycle count, calling run to fill it. A
// caller that waited on another caller's failed run (one cancelled by its
// own session, say) retries with its own run rather than inherit that
// error.
func (m *calibrationMemo) cycles(k calibrationKey, run func() (uint64, error)) (uint64, error) {
	for {
		m.mu.Lock()
		e, ok := m.entries[k]
		if !ok {
			if len(m.entries) >= calibrationMemoMax {
				for old := range m.entries { // evict an arbitrary entry
					delete(m.entries, old)
					break
				}
			}
			e = &calibrationEntry{}
			m.entries[k] = e
		}
		m.mu.Unlock()
		ran := false
		e.once.Do(func() {
			ran = true
			e.err = errCalibrationPanic // until run returns
			defer func() {
				if e.err != nil {
					m.mu.Lock()
					if m.entries[k] == e {
						delete(m.entries, k)
					}
					m.mu.Unlock()
				}
			}()
			e.cycles, e.err = run()
		})
		if e.err == nil || ran {
			return e.cycles, e.err
		}
	}
}
