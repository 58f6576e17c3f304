package vm

import (
	"sync"

	"repro/internal/ir"
)

// This file is the backend seam: everything an alternative execution
// engine needs to drive the VM's cost model, tasking layer, comm runtime
// and sampler hooks without reimplementing them. The interpreter is the
// default backend; a compiled backend replaces only the instruction
// dispatch loop (SliceFn) and inherits the rest — scheduler, spawns,
// joins, comm accounting, fault injection, cancellation — so its
// accounting is identical by construction.

// SliceFn executes up to quantum slice steps of task t, exactly as the
// interpreter's slice loop would: one step is one retired instruction,
// one iteration-driver advance, or one frame pop. Implementations must
// stop early when SliceStop reports true or when StepOne returns false
// (task blocked or finished), and must preserve the interpreter's
// charge/listener ordering for every instruction they retire (see
// Retire).
type SliceFn func(m *VM, t *Task, quantum int)

// compiledReg maps a compiled program to its registered SliceFn. Keyed by
// the *ir.Program pointer: the compile memo layer (compile.SourceCached)
// returns the identical pointer for identical (name, source, options), so
// a runner that registers its generated code right after compiling sees
// every later VM over that program pick it up.
var compiledReg sync.Map // *ir.Program -> SliceFn

// RegisterCompiled installs fn as the execution engine for prog. Every VM
// created for prog afterwards dispatches through fn instead of the
// interpreter loop.
func RegisterCompiled(prog *ir.Program, fn SliceFn) {
	compiledReg.Store(prog, fn)
}

// CompiledFor returns the SliceFn registered for prog, or nil.
func CompiledFor(prog *ir.Program) SliceFn {
	if fn, ok := compiledReg.Load(prog); ok {
		return fn.(SliceFn)
	}
	return nil
}

// StepOne executes exactly one interpreter step of t — the compiled
// backend's fallback for instructions it does not inline. Returns false
// when the task blocked or finished (the slice must end).
func (m *VM) StepOne(t *Task) bool { return m.step(t) }

// SliceStop reports whether the current slice must stop before another
// step: a runtime error, an explicit halt, or the task no longer being
// runnable (blocked at a join or done).
func (m *VM) SliceStop(t *Task) bool {
	return m.err != nil || m.halted || !t.runnable()
}

// Retire accounts one compiled-backend instruction exactly as the
// interpreter's step tail does: instruction count, static cycle charge
// from the precomputed cost table, and the listener callback with the
// accessed array (nil for non-memory ops). Callers must invoke it after
// the instruction's effect but before advancing Activation.Idx, so a
// sampler stack walk taken inside the callback sees the retiring
// instruction as the innermost frame's current instruction.
func (m *VM) Retire(t *Task, addr uint64, acc *ArrayVal) {
	m.Stats.Instructions++
	cycles := m.costTab[addr]
	m.coreOf(t).clock += cycles
	m.totalCycles += cycles
	if !m.noLis {
		m.lis.Exec(cycles, t, m.Prog.Instrs[addr], acc)
	}
}

// CostTab exposes the precomputed per-instruction static cost table
// (indexed by dense instruction address) so compiled code can charge
// inline instead of through a Retire call per instruction.
func (m *VM) CostTab() []uint64 { return m.costTab }

// NoLis reports whether no listener is attached. When true, compiled
// code may batch instruction/cycle accounting between observation
// points (any fallback step, slice exit, or comm/fault hook) with
// Bump, because nothing can observe intermediate counter states inside
// a slice. When false, every retirement must go through Retire so the
// listener sees per-instruction events in order.
func (m *VM) NoLis() bool { return m.noLis }

// Bump applies a batched accounting delta: n retired instructions
// costing a total of cycles. Only valid when NoLis() is true and no
// observation point was crossed since the first batched instruction.
func (m *VM) Bump(t *Task, n int, cycles uint64) {
	m.Stats.Instructions += uint64(n)
	m.coreOf(t).clock += cycles
	m.totalCycles += cycles
}
