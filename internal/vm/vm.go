package vm

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/source"
)

// Listener observes execution. The sampling profiler, the code-centric
// baseline and the HPCToolkit-like baseline are all Listeners.
type Listener interface {
	// Exec is called for every executed instruction with its cycle cost.
	// acc is the array allocation touched by element accesses (nil
	// otherwise) — the address information PEBS-style sampling exposes.
	Exec(cycles uint64, t *Task, in *ir.Instr, acc *ArrayVal)
	// Spin reports idle-spin cycles attributed to a runtime function
	// (worker threads waiting for work or for a barrier).
	Spin(cycles uint64, t *Task, fn *ir.Func)
	// PreSpawn fires in the tasking layer right before tasks are created;
	// the monitoring process records the parent's stack walk under tag
	// (paper §IV.B: "record the stack trace before the spawn operation").
	PreSpawn(parent *Task, tag uint64, site *ir.Instr)
	// Alloc reports a heap allocation (arrays, class instances).
	Alloc(addr uint64, size int64, v *ir.Var, site *ir.Instr)
	// Comm reports a remote (inter-locale) data access: bytes moved
	// between locales on behalf of the variable owning the accessed
	// allocation — the paper's §VI plan to "blame communication cost
	// back to key data structures".
	Comm(bytes int64, from, to int, owner *ir.Var, t *Task, in *ir.Instr)
	// CommAgg reports an aggregation-runtime event (hits, prefetches,
	// flushes, invalidations...) when the modeled communication runtime
	// is enabled. Message events are additionally reported through Comm.
	CommAgg(ev comm.Event, t *Task)
}

// nopListener is used when no profiler is attached.
type nopListener struct{}

func (nopListener) Exec(uint64, *Task, *ir.Instr, *ArrayVal)        {}
func (nopListener) Spin(uint64, *Task, *ir.Func)                    {}
func (nopListener) PreSpawn(*Task, uint64, *ir.Instr)               {}
func (nopListener) Alloc(uint64, int64, *ir.Var, *ir.Instr)         {}
func (nopListener) Comm(int64, int, int, *ir.Var, *Task, *ir.Instr) {}
func (nopListener) CommAgg(comm.Event, *Task)                       {}

// Config parameterizes a run.
type Config struct {
	// NumCores is the number of simulated cores per locale (paper: 12).
	NumCores int
	// NumLocales simulates the PGAS node count (paper experiments: 1).
	NumLocales int
	// Configs overrides `config const` values, like ./prog --name=value.
	Configs map[string]string
	// Stdout receives writeln output.
	Stdout io.Writer
	// Listener observes execution (nil = none).
	Listener Listener
	// MaxCycles aborts runaway programs (0 = no limit).
	MaxCycles uint64
	// CommAggregate enables the modeled communication runtime
	// (internal/comm): halo ghost-window prefetch, run-length coalescing
	// of sequential/strided remote reads, and a per-locale software cache
	// with write-back flushing. Program output is unchanged; only the
	// message accounting (and thus cycles) differs.
	CommAggregate bool
	// CommCacheCap is the per-locale software-cache capacity in elements
	// (0 selects comm.DefaultCacheCap, negative disables caching). Only
	// meaningful with CommAggregate.
	CommCacheCap int
	// CommInspector enables the inspector–executor path for irregular
	// (data-dependent subscript) sites: remote index sets are recorded
	// once per task, gathered in bulk per owner, memoized per sweep
	// window, and read-mostly arrays are selectively replicated. Only
	// meaningful with CommAggregate and a CommPlan that classifies
	// SiteIrregular sites.
	CommInspector bool
	// CommPlan is the static comm-pattern plan (analyze.CommPlan) the
	// aggregation runtime keys halo prefetches on. Optional; runs use the
	// plan they are given, and serve's Request.VMConfig derives it.
	CommPlan *comm.Plan
	// NoOwnerComputes disables owner-computes forall scheduling: chunks
	// of a forall over a Block-dmapped space then inherit the spawning
	// task's locale (the pre-owner-computes baseline), paying remote
	// messages for every non-local element. Used by the before/after
	// studies in internal/exp; leave false for Chapel-faithful runs.
	NoOwnerComputes bool
	// Fault, when non-nil, injects deterministic comm faults (loss with
	// retries, duplicates, delays, slow/failed locales) into every remote
	// access and remote spawn. Output is unchanged — chunks owned by a
	// dead locale fall back to the spawner's locale, lost messages are
	// retransmitted — only cycles and Stats.Fault counters move.
	Fault *fault.Injector
	// Cancel, when non-nil, aborts the run at the next scheduling quantum
	// once set. The check sits in the scheduler loop, outside the
	// instruction hot path, so long-running programs become
	// interruptible (profiling sessions with deadlines, server-side
	// cancellation) without perturbing determinism: a run that is never
	// cancelled executes exactly as if the knob were nil.
	Cancel *atomic.Bool
}

// ErrCancelled is the message carried by the RuntimeError a cancelled
// run returns.
const ErrCancelled = "run cancelled"

// The machine model is fixed: every run charges the one calibrated cost
// model (costs), converts cycles at the paper testbed's clock, and
// schedules in quanta of the same length. Only the run shape above
// varies.
const (
	// ClockHz converts cycles to seconds for reports (paper: 2.53 GHz).
	ClockHz = 2.53e9
	// quantum is the instructions per scheduling slice (determinism).
	quantum = 64
)

// DefaultConfig mirrors the paper's testbed: a single locale with 12
// cores.
func DefaultConfig() Config {
	return Config{
		NumCores:   12,
		NumLocales: 1,
		Stdout:     io.Discard,
	}
}

// RuntimeError is an execution failure with source context.
type RuntimeError struct {
	Pos   source.Pos
	Msg   string
	Stack []string
}

func (e *RuntimeError) Error() string {
	s := fmt.Sprintf("runtime error at line %d: %s", e.Pos.Line, e.Msg)
	if len(e.Stack) > 0 {
		s += "\n  in " + strings.Join(e.Stack, "\n  in ")
	}
	return s
}

// Activation is one call-stack frame.
type Activation struct {
	F     *ir.Func
	Block *ir.Block
	Idx   int
	Slots []Value
	// RetDst receives the callee's return value (cell in the caller).
	RetDst *Value
	// CallSite is the instruction that created this frame (nil for task
	// roots); the stack walker reports it.
	CallSite *ir.Instr
}

// maxActFree bounds the activation free list (frames beyond this go back
// to the garbage collector).
const maxActFree = 256

// iterState drives a forall/coforall chunk: the task repeatedly invokes
// the outlined body for each index in [pos, end). start records the
// chunk's first position so the comm runtime can see the whole sweep.
// idxBuf/argBuf are per-chunk scratch reused across iterations (pushFrame
// copies argument values into the frame, so the backing arrays are free
// to be overwritten by the next index).
type iterState struct {
	body     *ir.Func
	captures []Value
	space    DomainVal
	pos, end int64
	start    int64
	site     *ir.Instr
	idxBuf   [3]int64
	argBuf   []Value
}

// joinGroup tracks outstanding child tasks for a blocking construct.
type joinGroup struct {
	pending       int
	waiter        *Task
	completeClock uint64
	barrierSite   *ir.Instr
}

// Task is a Chapel task (master or worker).
type Task struct {
	ID     int
	Tag    uint64 // spawn tag (0 for the master)
	Parent *Task
	Frames []*Activation
	Core   int
	Locale int

	iter      *iterState
	join      *joinGroup // group to signal at completion
	blockedOn *joinGroup
	syncStack []*joinGroup
	done      bool
}

// Top returns the innermost activation, or nil.
func (t *Task) Top() *Activation {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// StackAddrs walks the task's stack, innermost first, returning the
// current instruction address of each frame — exactly what a Dyninst
// stack walk yields. Suspended caller frames hold the *return* address
// (the instruction after the call); like real stack walkers, we report
// the call site itself (the return-address-minus-one adjustment).
func (t *Task) StackAddrs() []uint64 {
	out := make([]uint64, 0, len(t.Frames))
	for i := len(t.Frames) - 1; i >= 0; i-- {
		a := t.Frames[i]
		if a.Block == nil {
			continue
		}
		idx := a.Idx
		if i < len(t.Frames)-1 && idx > 0 {
			idx-- // suspended at the instruction after its call
		}
		if idx >= len(a.Block.Instrs) {
			idx = len(a.Block.Instrs) - 1
		}
		if idx < 0 {
			continue
		}
		out = append(out, a.Block.Instrs[idx].Addr)
	}
	return out
}

// runnable reports whether the task can execute now.
func (t *Task) runnable() bool { return !t.done && t.blockedOn == nil }

type core struct {
	clock uint64
	queue []*Task
	// lastTask is the most recent task that ran here; idle spin between
	// assignments is attributed to its context (persistent worker
	// threads keep their previous spawn tag while waiting for work).
	lastTask *Task
}

// VM executes one IR program.
type VM struct {
	Prog *ir.Program
	Cfg  Config

	globals []Value
	cores   []core
	lis     Listener

	totalCycles uint64
	nextAddr    uint64
	nextTaskID  int
	nextTag     uint64
	spawnRR     int // round-robin core cursor

	hereVar *ir.Var
	halted  bool
	err     *RuntimeError
	// comm is the modeled communication runtime (nil unless
	// Config.CommAggregate).
	comm *comm.Runtime
	// fault is the deterministic fault injector (nil unless Config.Fault);
	// nil receivers are inert, so call sites skip nil checks.
	fault *fault.Injector

	// noLis short-circuits all Listener calls when no profiler is
	// attached, so unsampled runs skip per-instruction monitor
	// bookkeeping entirely.
	noLis bool
	// costTab is the precomputed per-instruction cost (indexed by the
	// dense Instr.Addr), with --fast scaling and i-cache surcharges folded
	// in; shared across VMs of the same (program, cost model).
	costTab []uint64
	// rtFns resolves the runtime functions the tasking layer charges
	// against, precomputed to avoid linear FuncByName scans per spawn and
	// per iteration.
	rtFns        map[string]*ir.Func
	fnSchedYield *ir.Func
	// actFree recycles popped activations (and their slot arrays).
	// Disabled (poolOff) for programs using non-blocking `begin`, whose
	// captured references may outlive the spawning frame.
	actFree []*Activation
	poolOff bool
	// defSlots caches each function's precomputed local default
	// initializers, replacing a per-frame type walk.
	defSlots map[*ir.Func][]defSlot
	// hereTmp backs readPtr's resolution of the `here` pseudo-variable;
	// idxScratch backs elemCell's resolved index (rank <= 3).
	hereTmp    Value
	idxScratch [3]int64
	// sliceFn, when non-nil, replaces the interpreter's slice loop with a
	// compiled backend's dispatch (see backend.go). Resolved once at VM
	// construction from the per-program registry.
	sliceFn SliceFn
	// skel selects skeleton mode (see NewSkeleton).
	skel bool

	// Stats accumulates run statistics.
	Stats Stats
}

// Stats summarizes a run.
type Stats struct {
	TotalCycles  uint64 // sum over cores (PAPI_TOT_CYC-like, incl. spin)
	WallCycles   uint64 // max core clock (elapsed time)
	SpinCycles   uint64 // idle-spin portion of TotalCycles
	Instructions uint64
	TasksSpawned uint64
	Allocations  uint64
	AllocBytes   int64
	CommMessages uint64 // remote gets/puts (multi-locale)
	CommBytes    int64
	// Owner-computes scheduling counters (multi-locale foralls over
	// Block-dmapped spaces).
	OwnerChunks     uint64 // forall chunks placed on their owning locale
	RemoteSpawns    uint64 // chunks launched on a locale != the spawner's
	OwnerSiteRemote uint64 // element accesses at statically owner-computes sites that still went remote (should be 0)
	// Agg holds the aggregation runtime's statistics (nil unless
	// Config.CommAggregate).
	Agg *comm.Stats
	// Fault holds the fault injector's counters (nil unless Config.Fault).
	Fault *fault.Stats `json:",omitempty"`
	// TaskPanics records tasks whose execution panicked and was recovered
	// into a diagnostic instead of killing the run.
	TaskPanics []TaskPanic `json:",omitempty"`
}

// TaskPanic is one recovered task panic (graceful degradation: the task
// is abandoned, its joins released, and the run continues).
type TaskPanic struct {
	TaskID int
	Tag    uint64
	Fn     string // innermost frame at the point of panic
	Msg    string
}

// Seconds converts wall cycles to seconds at ClockHz.
func (s Stats) Seconds() float64 { return float64(s.WallCycles) / ClockHz }

// New creates a VM for prog.
func New(prog *ir.Program, cfg Config) *VM {
	if cfg.NumCores <= 0 {
		cfg.NumCores = 1
	}
	if cfg.NumLocales <= 0 {
		cfg.NumLocales = 1
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	m := &VM{
		Prog:     prog,
		Cfg:      cfg,
		globals:  make([]Value, len(prog.Globals)),
		cores:    make([]core, cfg.NumCores*cfg.NumLocales),
		lis:      cfg.Listener,
		nextAddr: 0x10000,
	}
	if m.lis == nil {
		m.lis = nopListener{}
		m.noLis = true
	}
	if cfg.CommAggregate {
		m.comm = comm.New(comm.Config{
			Locales:   cfg.NumLocales,
			CacheCap:  cfg.CommCacheCap,
			Fault:     cfg.Fault,
			Inspector: cfg.CommInspector,
		}, cfg.CommPlan)
	}
	m.fault = cfg.Fault
	m.Stats.Fault = m.fault.Stats()
	// Per-instruction static costs (with --fast scaling and i-cache
	// surcharges folded in), shared across VMs of the same program.
	m.costTab = costTable(prog)
	// Resolve the tasking-layer runtime functions once (rtCharge/spinTo
	// attribute cycles to them on every spawn, barrier and iteration).
	m.rtFns = make(map[string]*ir.Func, 4)
	for _, name := range []string{"chpl_task_spawn", "chpl_task_barrier",
		"chpl_task_callTaskFunction", "__sched_yield"} {
		m.rtFns[name] = prog.FuncByName(name)
	}
	m.fnSchedYield = m.rtFns["__sched_yield"]
	m.defSlots = make(map[*ir.Func][]defSlot)
	// `begin` children don't block their parent, so captured references
	// may still point into frames that have returned; recycling those
	// frames would alias live refs. Blocking constructs (forall, coforall,
	// cobegin, on) keep the parent frame pinned, so pooling stays on.
	for _, in := range prog.Instrs {
		if in.Op == ir.OpSpawn && in.Spawn != nil && in.Spawn.Kind == ir.SpawnBegin {
			m.poolOff = true
			break
		}
	}
	// Zero-initialize declared globals by type (record array fields are
	// re-initialized by the definit marker in module init once their
	// domains have values).
	for _, g := range prog.Globals {
		if g.Sym != nil && g.Sym.Owner == nil && g.Type != nil {
			m.globals[g.Slot] = m.defaultValue(g.Type)
		}
	}
	m.initPredeclared()
	m.sliceFn = CompiledFor(prog)
	return m
}

// initPredeclared sets up Locales, numLocales, here and nil globals.
func (m *VM) initPredeclared() {
	for _, g := range m.Prog.Globals {
		switch g.Name {
		case "numLocales":
			if g.Sym != nil && g.Sym.Owner == nil {
				m.globals[g.Slot] = IntVal(int64(m.Cfg.NumLocales))
			}
		case "Locales":
			if g.Sym != nil && g.Sym.Owner == nil {
				arr := &ArrayVal{
					Dom:    DomainVal{Rank: 1, Dims: [3]RangeVal{{0, int64(m.Cfg.NumLocales - 1), 1}}},
					Layout: DomainVal{Rank: 1, Dims: [3]RangeVal{{0, int64(m.Cfg.NumLocales - 1), 1}}},
					ElemT:  nil,
				}
				arr.Data = make([]Value, m.Cfg.NumLocales)
				for i := range arr.Data {
					arr.Data[i] = Value{K: KLocale, I: int64(i)}
				}
				m.globals[g.Slot] = Value{K: KArray, Arr: arr}
			}
		case "here":
			if g.Sym != nil && g.Sym.Owner == nil {
				m.hereVar = g
			}
		case "nil":
			m.globals[g.Slot] = Value{K: KNil}
		}
	}
}

// coreOf returns the core a task runs on.
func (m *VM) coreOf(t *Task) *core { return &m.cores[t.Core] }

// Run executes module init then main to completion.
func (m *VM) Run() (Stats, error) {
	if m.Prog.ModuleInit != nil {
		if err := m.runRoot(m.Prog.ModuleInit); err != nil {
			return m.finishStats(), err
		}
	}
	if m.Prog.Main == nil {
		return m.finishStats(), fmt.Errorf("vm: program has no main")
	}
	if err := m.runRoot(m.Prog.Main); err != nil {
		return m.finishStats(), err
	}
	return m.finishStats(), nil
}

func (m *VM) finishStats() Stats {
	if m.comm != nil {
		// Residual dirty entries (tasks flush at completion, so normally
		// none) surface in the aggregation statistics.
		m.comm.Drain()
		m.Stats.Agg = m.comm.Stats()
	}
	m.Stats.TotalCycles = m.totalCycles
	var maxClock uint64
	for i := range m.cores {
		if m.cores[i].clock > maxClock {
			maxClock = m.cores[i].clock
		}
	}
	m.Stats.WallCycles = maxClock
	return m.Stats
}

// runRoot runs fn as a fresh root task through the scheduler.
func (m *VM) runRoot(fn *ir.Func) error {
	t := &Task{ID: m.nextTaskID, Core: 0, Locale: 0}
	m.nextTaskID++
	m.pushFrame(t, fn, nil, nil)
	m.cores[0].queue = append(m.cores[0].queue, t)
	return m.schedule()
}

// newActivation allocates (or recycles) a frame with n zeroed slots.
func (m *VM) newActivation(fn *ir.Func, n int) *Activation {
	if k := len(m.actFree); k > 0 {
		act := m.actFree[k-1]
		m.actFree[k-1] = nil
		m.actFree = m.actFree[:k-1]
		act.F = fn
		act.Idx = 0
		act.RetDst = nil
		act.CallSite = nil
		act.Block = nil
		if cap(act.Slots) >= n {
			s := act.Slots[:n]
			for i := range s {
				s[i] = Value{}
			}
			act.Slots = s
		} else {
			act.Slots = make([]Value, n)
		}
		return act
	}
	return &Activation{F: fn, Slots: make([]Value, n)}
}

// freeActivation returns a popped frame to the pool. Callers must not
// retain act afterwards.
func (m *VM) freeActivation(act *Activation) {
	if m.poolOff || len(m.actFree) >= maxActFree {
		return
	}
	m.actFree = append(m.actFree, act)
}

// frameSlots returns the slot count of a frame for fn.
func frameSlots(fn *ir.Func) int {
	n := len(fn.Params) + len(fn.Locals)
	if fn.RetVar != nil {
		n++
	}
	return n
}

// pushFrame enters fn on task t. args are pre-bound parameter values
// (may be nil for zero-arg roots).
func (m *VM) pushFrame(t *Task, fn *ir.Func, args []Value, retDst *Value) *Activation {
	act := m.newActivation(fn, frameSlots(fn))
	if len(fn.Blocks) > 0 {
		act.Block = fn.Blocks[0]
	}
	act.RetDst = retDst
	for i, p := range fn.Params {
		if i < len(args) {
			act.Slots[p.Slot] = args[i]
		}
	}
	// Default-initialize locals by declared type (globals are zeroed the
	// same way at startup). The per-function defSlot list skips locals
	// whose default is the zero Value and precomputes the rest. Indexed
	// iteration: a defSlot embeds a 216-byte Value, so a range copy per
	// default would dominate this loop.
	defs := m.defaultsFor(fn)
	for i := range defs {
		d := &defs[i]
		if act.Slots[d.slot].K != KNil {
			continue // parameter-aliased slot already bound
		}
		switch d.mode {
		case defDirect:
			act.Slots[d.slot] = d.v
		case defCopy:
			copyValueInto(&act.Slots[d.slot], &d.v)
		default:
			act.Slots[d.slot] = m.defaultValue(d.typ)
		}
	}
	t.Frames = append(t.Frames, act)
	return act
}

// schedule is the discrete-event core scheduler: repeatedly pick the
// runnable task whose core clock is lowest and execute one quantum.
func (m *VM) schedule() error {
	for {
		if m.err != nil {
			return m.err
		}
		if m.halted {
			return nil
		}
		ci := -1
		for i := range m.cores {
			c := &m.cores[i]
			if !hasRunnable(c) {
				continue
			}
			if ci < 0 || c.clock < m.cores[ci].clock {
				ci = i
			}
		}
		if ci < 0 {
			// No runnable tasks: either everything finished, or deadlock.
			total := 0
			for i := range m.cores {
				total += len(m.cores[i].queue)
			}
			if total == 0 {
				return nil
			}
			return &RuntimeError{Msg: "deadlock: all tasks blocked"}
		}
		m.runQuantum(&m.cores[ci])
		if m.Cfg.MaxCycles > 0 && m.totalCycles > m.Cfg.MaxCycles {
			return &RuntimeError{Msg: fmt.Sprintf("cycle budget exceeded (%d)", m.Cfg.MaxCycles)}
		}
		if m.Cfg.Cancel != nil && m.Cfg.Cancel.Load() {
			return &RuntimeError{Msg: ErrCancelled}
		}
	}
}

func hasRunnable(c *core) bool {
	for _, t := range c.queue {
		if t.runnable() {
			return true
		}
	}
	return false
}

// runQuantum executes up to Quantum instructions from the first runnable
// task on c, then rotates the queue.
func (m *VM) runQuantum(c *core) {
	// Find first runnable; rotate it to the front.
	k := -1
	for i, t := range c.queue {
		if t.runnable() {
			k = i
			break
		}
	}
	if k < 0 {
		return
	}
	t := c.queue[k]
	c.lastTask = t
	m.runSlice(t)
	// Rotate: move t to the back for round-robin fairness.
	if len(c.queue) > 1 {
		c.queue = append(append(c.queue[:k:k], c.queue[k+1:]...), t)
	}
	m.reap(c)
}

// runSlice executes up to Quantum instructions from t, recovering a task
// panic into a per-task diagnostic (Stats.TaskPanics): the task is
// abandoned, its join group released, and the run continues degraded
// rather than crashing the whole simulation.
func (m *VM) runSlice(t *Task) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		p := TaskPanic{TaskID: t.ID, Tag: t.Tag, Msg: fmt.Sprint(r)}
		if a := t.Top(); a != nil && a.F != nil {
			p.Fn = a.F.Name
		}
		m.Stats.TaskPanics = append(m.Stats.TaskPanics, p)
		t.Frames = t.Frames[:0]
		t.iter = nil
		t.blockedOn = nil
		if !t.done {
			m.taskFinished(t)
		}
	}()
	if m.sliceFn != nil {
		m.sliceFn(m, t, quantum)
		return
	}
	for i := 0; i < quantum; i++ {
		if m.err != nil || m.halted || !t.runnable() {
			break
		}
		if !m.step(t) {
			break
		}
	}
}

// reap removes finished tasks from the queue.
func (m *VM) reap(c *core) {
	kept := c.queue[:0]
	for _, t := range c.queue {
		if !t.done {
			kept = append(kept, t)
		}
	}
	c.queue = kept
}

// charge accounts cycles for t's instruction execution.
func (m *VM) charge(t *Task, cycles uint64) {
	m.coreOf(t).clock += cycles
	m.totalCycles += cycles
}

// rtCharge accounts tasking-layer cycles under a named runtime function,
// so the PMU sees them (they surface under runtime frames in the
// code-centric view, exactly as qthreads internals do).
func (m *VM) rtCharge(t *Task, cycles uint64, fnName string) {
	m.charge(t, cycles)
	if m.noLis {
		return
	}
	if f := m.rtFunc(fnName); f != nil {
		m.lis.Spin(cycles, t, f)
	}
}

// rtFunc resolves a runtime function by name, memoizing the linear
// FuncByName scan (negative results included).
func (m *VM) rtFunc(name string) *ir.Func {
	f, ok := m.rtFns[name]
	if !ok {
		f = m.Prog.FuncByName(name)
		m.rtFns[name] = f
	}
	return f
}

// spinTo advances a core's clock to target, attributing the gap as
// idle-spin in the scheduler (__sched_yield), as qthreads worker threads
// do while waiting for work — the Fig. 4 signature.
func (m *VM) spinTo(t *Task, target uint64) {
	c := m.coreOf(t)
	if target <= c.clock {
		return
	}
	gap := target - c.clock
	c.clock = target
	m.totalCycles += gap
	m.Stats.SpinCycles += gap
	if !m.noLis && m.fnSchedYield != nil {
		m.lis.Spin(gap, t, m.fnSchedYield)
	}
}

// taskFinished handles task completion bookkeeping.
func (m *VM) taskFinished(t *Task) {
	if m.comm != nil {
		// Write-back: flush the task's dirty remote elements as coalesced
		// runs, charging the messages to the finishing task.
		for _, ev := range m.comm.TaskEnd(t.ID, t.Locale) {
			if ev.Message() {
				m.Stats.CommMessages++
				m.Stats.CommBytes += ev.Bytes
				m.lis.Comm(ev.Bytes, ev.From, ev.To, ev.Var, t, nil)
				m.charge(t, m.cost(costs.CommLatency*uint64(1+ev.ExtraLat)+uint64(ev.Bytes)*costs.CommPerByte))
			}
			m.lis.CommAgg(ev, t)
		}
	}
	t.done = true
	finish := m.coreOf(t).clock
	if g := t.join; g != nil {
		g.pending--
		if finish > g.completeClock {
			g.completeClock = finish
		}
		if g.pending == 0 && g.waiter != nil && g.waiter.blockedOn == g {
			w := g.waiter
			w.blockedOn = nil
			// The waiter spun at the barrier until the last child arrived.
			m.spinTo(w, g.completeClock)
			m.rtCharge(w, m.cost(costs.Barrier), "chpl_task_barrier")
			if m.comm != nil {
				// Barrier-time inspector work: selective replication of
				// arrays that turned read-mostly during the sweep, charged
				// to the waiter.
				for _, ev := range m.comm.SweepEnd() {
					if ev.Message() {
						m.Stats.CommMessages++
						m.Stats.CommBytes += ev.Bytes
						m.lis.Comm(ev.Bytes, ev.From, ev.To, ev.Var, w, nil)
						m.charge(w, m.cost(costs.CommLatency*uint64(1+ev.ExtraLat)+uint64(ev.Bytes)*costs.CommPerByte))
					}
					m.lis.CommAgg(ev, w)
				}
			}
			// Step past the spawn instruction the waiter blocked on.
			if a := w.Top(); a != nil && a.Block != nil && a.Idx < len(a.Block.Instrs) {
				if a.Block.Instrs[a.Idx].Op == ir.OpSpawn {
					a.Idx++
				}
			}
		}
	}
}

// cost applies the --fast scale factor.
func (m *VM) cost(c uint64) uint64 {
	return costs.scale(m.Prog.Optimized, c)
}

// fail records a runtime error with a stack trace.
func (m *VM) fail(t *Task, in *ir.Instr, format string, args ...any) {
	if m.err != nil {
		return
	}
	e := &RuntimeError{Msg: fmt.Sprintf(format, args...)}
	if in != nil {
		e.Pos = in.Pos
	}
	for i := len(t.Frames) - 1; i >= 0; i-- {
		e.Stack = append(e.Stack, t.Frames[i].F.Name)
	}
	m.err = e
}

// Globals exposes global storage (tests and views).
func (m *VM) Globals() []Value { return m.globals }
