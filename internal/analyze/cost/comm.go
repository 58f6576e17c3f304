package cost

import (
	"errors"

	"repro/internal/comm"
	"repro/internal/ir"
	"repro/internal/types"
	"repro/internal/vm"
)

// Comm volume comes from the VM itself, run in skeleton mode
// (vm.NewSkeleton): the real scheduler and comm runtime execute the
// program's scalar and control skeleton while non-int array contents
// stay unknown. The message counts are therefore the dynamic run's
// whenever control flow and distributed subscripts are data-independent
// — the affine and int-indirect comm benchmarks. When the skeleton
// aborts, comm is left unpredicted.

// commTrace is the Listener the skeleton run reports through: messages
// per owning variable and comm cycles per accessing instruction.
type commTrace struct {
	p      *predictor
	perVar map[string]int64
	cycles map[*ir.Instr]float64
}

func (c *commTrace) Exec(_ uint64, _ *vm.Task, in *ir.Instr, _ *vm.ArrayVal) {
	switch in.Op {
	case ir.OpField, ir.OpRefField, ir.OpAllocRec:
		// OpField reads a field's array by value (a local copy), so comm
		// through record/class field arrays is a documented blind spot.
		if in.Dst != nil {
			if _, ok := in.Dst.Type.(*types.ArrayType); ok {
				c.p.note("array in a record/class field: comm through it is not walked")
			}
		}
	}
}

func (c *commTrace) Spin(uint64, *vm.Task, *ir.Func)         {}
func (c *commTrace) PreSpawn(*vm.Task, uint64, *ir.Instr)    {}
func (c *commTrace) Alloc(uint64, int64, *ir.Var, *ir.Instr) {}
func (c *commTrace) CommAgg(comm.Event, *vm.Task)            {}
func (c *commTrace) Comm(bytes int64, _, _ int, owner *ir.Var, _ *vm.Task, in *ir.Instr) {
	name := "?"
	if owner != nil {
		name = owner.Name
	}
	c.perVar[name]++
	if in != nil {
		c.cycles[in] += float64(c.p.commCycles1(bytes))
	}
}

// commCycles1 is the VM's charge for one fault-free message of bytes.
func (p *predictor) commCycles1(bytes int64) uint64 {
	c := vm.Costs()
	return c.ScaleCost(p.prog.Optimized, c.CommLatency+uint64(bytes)*c.CommPerByte)
}

// traceComm runs the skeleton VM and fills pred's comm fields. On abort
// it returns the reason and leaves pred untouched.
func (p *predictor) traceComm(pred *Prediction) error {
	cfg := p.opts.VM
	tr := &commTrace{p: p, perVar: make(map[string]int64), cycles: make(map[*ir.Instr]float64)}
	cfg.Listener = tr
	st, err := vm.NewSkeleton(p.prog, cfg).Run()
	if err != nil {
		var re *vm.RuntimeError
		if errors.As(err, &re) {
			return errors.New(re.Msg)
		}
		return err
	}
	if len(st.TaskPanics) > 0 {
		return errors.New(st.TaskPanics[0].Msg)
	}

	pred.Msgs, pred.Bytes = int64(st.CommMessages), st.CommBytes
	pred.MsgsByVar = tr.perVar
	direct := pred.Msgs
	if s := st.Agg; s != nil {
		direct -= s.Messages
		pred.MsgsByClass["prefetch"] = s.Prefetches
		pred.MsgsByClass["stream"] = s.Streams
		pred.MsgsByClass["flush"] = s.Flushes
		if s.Gathers > 0 {
			pred.MsgsByClass["gather"] = s.Gathers
		}
		if s.Replications > 0 {
			pred.MsgsByClass["replicate"] = s.Replications
		}
		pred.MsgsByClass["fetch"] = s.Messages - s.Prefetches - s.Streams - s.Flushes -
			s.Gathers - s.Replications
	}
	if direct > 0 {
		pred.MsgsByClass["fine"] = direct
	}
	p.commCycles = tr.cycles
	return nil
}
