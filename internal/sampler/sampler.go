// Package sampler implements the monitoring process of paper §IV.B: it
// attaches to the VM (as the Dyninst monitor attaches to the target), and
// on each PMU overflow performs a stack walk of the interrupted task,
// recording raw context-sensitive samples. It also instruments the
// tasking layer: every spawn mints a unique tag and records the parent's
// pre-spawn stack trace, so post-mortem processing can glue worker-thread
// stacks back to their full calling context.
package sampler

import (
	"repro/internal/ir"
	"repro/internal/pmu"
	"repro/internal/vm"
)

// RawSample is one PMU-overflow sample: a raw address vector plus task
// identity — exactly what the monitoring process can observe.
type RawSample struct {
	// Addr is the sampled instruction address (the precise IP read from
	// the PMU registers).
	Addr uint64
	// Stack is the post-spawn stack walk, innermost first (Stack[0] ==
	// Addr unless the sample hit runtime spin code).
	Stack []uint64
	// Tag is the task's spawn tag (0 for the master task).
	Tag uint64
	// Locale is the node the sample was taken on.
	Locale int
	// RuntimeFunc is the runtime-library function name for samples that
	// landed in runtime code (idle spin / scheduler), empty otherwise.
	RuntimeFunc string
	// DataAddr is the memory address touched by the sampled instruction
	// (0 when the instruction was not a memory access) — what PEBS-style
	// address sampling provides; used by the HPCToolkit-like baseline.
	DataAddr uint64
}

// SpawnRecord is the tasking-layer instrumentation record for one spawn
// operation, keyed by its tag in Sampler.Spawns: the spawning task's own
// tag plus the pre-spawn stack trace.
type SpawnRecord struct {
	ParentTag uint64
	// Stack is the parent's stack walk at the spawn point, innermost
	// first; Stack[0] is the spawn instruction itself.
	Stack []uint64
}

// CommRecord is one remote (inter-locale) data transfer observed by the
// monitor — the raw material for communication blame (paper §VI).
type CommRecord struct {
	Bytes    int64
	From, To int
	// Var is the variable owning the accessed allocation (nil when the
	// allocation was anonymous).
	Var *ir.Var
}

// AllocRecord is one heap allocation event.
type AllocRecord struct {
	Addr    uint64
	Size    int64
	VarName string
	Var     *ir.Var
}

// Sampler is a vm.Listener that produces raw profiling data.
type Sampler struct {
	prog    *ir.Program
	counter *pmu.Counter
	skid    pmu.SkidQueue
	// ringCap models a bounded sample ring buffer: once Samples reaches
	// it, further samples are dropped and counted (0 = unbounded).
	ringCap int

	Samples []RawSample
	Spawns  map[uint64]SpawnRecord
	Allocs  []AllocRecord
	Comms   []CommRecord

	// StackWalks counts walks performed (overhead accounting, §V).
	StackWalks uint64
	// Dropped counts samples lost to ring-buffer overrun — the real-world
	// failure mode where the monitor can't drain the PMU buffer fast
	// enough. Post-mortem reports them so a partial profile is honest
	// about its coverage.
	Dropped uint64
}

// Option configures a Sampler.
type Option func(*Sampler)

// WithSkid injects interrupt skid of n instructions.
func WithSkid(n int) Option {
	return func(s *Sampler) { s.skid.Skid = n }
}

// WithRingBuffer bounds the sample buffer to n entries: overruns are
// dropped (newest-lost, like a full perf ring buffer) and counted in
// Dropped. n <= 0 keeps the buffer unbounded.
func WithRingBuffer(n int) Option {
	return func(s *Sampler) { s.ringCap = n }
}

// New creates a sampler with the given overflow threshold in cycles
// (use pmu.DefaultThreshold scaled to the workload).
func New(prog *ir.Program, threshold uint64, opts ...Option) *Sampler {
	s := &Sampler{
		prog:    prog,
		counter: pmu.NewCounter(pmu.TotalCycles, threshold),
		Spawns:  make(map[uint64]SpawnRecord),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Threshold returns the programmed threshold.
func (s *Sampler) Threshold() uint64 { return s.counter.Threshold() }

// Exec implements vm.Listener.
func (s *Sampler) Exec(cycles uint64, t *vm.Task, in *ir.Instr, acc *vm.ArrayVal) {
	n := s.counter.Add(cycles)
	if s.skid.Skid > 0 {
		s.skid.Push(n)
		n = s.skid.Retire()
	}
	for i := 0; i < n; i++ {
		s.takeSample(t, in, acc)
	}
}

func (s *Sampler) takeSample(t *vm.Task, in *ir.Instr, acc *vm.ArrayVal) {
	if s.ringCap > 0 && len(s.Samples) >= s.ringCap {
		// Buffer overrun: the monitor checks for space before walking the
		// stack, so a dropped sample costs no walk.
		s.Dropped++
		return
	}
	s.StackWalks++
	smp := RawSample{
		Addr:   in.Addr,
		Tag:    t.Tag,
		Locale: t.Locale,
		Stack:  t.StackAddrs(),
	}
	if acc != nil {
		smp.DataAddr = acc.Addr
	}
	s.Samples = append(s.Samples, smp)
}

// Spin implements vm.Listener: samples landing in scheduler idle-spin are
// attributed to the runtime function (they surface in the code-centric
// view as __sched_yield, Fig. 4, and are trimmed from blame paths).
func (s *Sampler) Spin(cycles uint64, t *vm.Task, fn *ir.Func) {
	n := s.counter.Add(cycles)
	for i := 0; i < n; i++ {
		if s.ringCap > 0 && len(s.Samples) >= s.ringCap {
			s.Dropped++
			continue
		}
		s.StackWalks++
		smp := RawSample{
			Tag:         t.Tag,
			Locale:      t.Locale,
			Stack:       t.StackAddrs(),
			RuntimeFunc: fn.Name,
		}
		if len(fn.Blocks) > 0 && len(fn.Blocks[0].Instrs) > 0 {
			smp.Addr = fn.Blocks[0].Instrs[0].Addr
		}
		s.Samples = append(s.Samples, smp)
	}
}

// PreSpawn implements vm.Listener: record the unique spawn tag and the
// parent's pre-spawn stack walk.
func (s *Sampler) PreSpawn(parent *vm.Task, tag uint64) {
	s.StackWalks++
	s.Spawns[tag] = SpawnRecord{
		ParentTag: parent.Tag,
		Stack:     parent.StackAddrs(),
	}
}

// Alloc implements vm.Listener.
func (s *Sampler) Alloc(addr uint64, size int64, v *ir.Var) {
	name := ""
	if v != nil {
		name = v.Name
	}
	s.Allocs = append(s.Allocs, AllocRecord{Addr: addr, Size: size, VarName: name, Var: v})
}

// Comm implements vm.Listener.
func (s *Sampler) Comm(_ uint64, bytes int64, from, to int, owner *ir.Var, _ *ir.Instr) {
	s.Comms = append(s.Comms, CommRecord{Bytes: bytes, From: from, To: to, Var: owner})
}

// DataSetBytes is the paper's estimate of the raw profile's size on disk
// (overhead table in §V: "the sizes of the datasets generated during
// runtime are 6MB to 20MB"): each sample counts a fixed header plus its
// stack walk of 8-byte addresses, each spawn record likewise. Nothing is
// encoded; the figure is the size model the overhead view prints.
func (s *Sampler) DataSetBytes() int64 {
	var b int64
	for _, smp := range s.Samples {
		b += 32 + int64(len(smp.Stack))*8
	}
	for _, sp := range s.Spawns {
		b += 24 + int64(len(sp.Stack))*8
	}
	return b
}
