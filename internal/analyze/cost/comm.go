package cost

import (
	"errors"

	"repro/internal/analyze"
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
// — the affine and int-indirect comm benchmarks. When the
// skeleton aborts, the prediction falls back to the closed-form
// comm.Predict* site formulas.

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
	return p.costs.ScaleCost(p.prog.Optimized, p.costs.CommLatency+uint64(bytes)*p.costs.CommPerByte)
}

// traceComm runs the skeleton VM and fills pred's comm fields. On abort
// it returns the reason and leaves pred untouched.
func (p *predictor) traceComm(pred *Prediction) error {
	cfg := p.opts.VM
	cfg.CommPlan = analyze.CommPlan(p.prog)
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

// fallbackComm estimates comm volume from the classified sites and the
// closed-form comm.Predict* formulas when the skeleton run aborted. It
// only covers rank-1 Block-distributed sweeps — the affine patterns the
// plan classifies — and is deliberately coarse elsewhere.
func (p *predictor) fallbackComm() (msgs int64, perVar map[string]int64) {
	perVar = make(map[string]int64)
	nl := p.opts.VM.NumLocales
	if nl <= 1 {
		return 0, perVar
	}
	actx := p.actx
	for _, f := range p.reach {
		sp := actx.SpawnSite(f)
		if sp == nil || sp.Spawn == nil {
			continue
		}
		space := p.spawnSpace(sp)
		dims, ok := space.Space()
		if !ok || len(dims) == 0 {
			continue
		}
		loV, okL := dims[0].Lo.IsConst()
		hiV, okH := dims[0].Hi.IsConst()
		if !okL || !okH || hiV < loV {
			continue
		}
		n := hiV - loV + 1
		b := comm.Block{N: n, L: nl}
		sweeps := int64(p.inv[f] / maxF(1, float64(n))) // body invocations / space
		if sweeps <= 0 {
			sweeps = 1
		}
		for _, site := range actx.CommSites(f) {
			var per int64
			for loc := 0; loc < nl; loc++ {
				lo, hi := b.Span(loc)
				if hi <= lo {
					continue
				}
				switch site.Class {
				case comm.SiteHalo:
					var res comm.SpanSet
					m, _ := comm.PredictPrefetch(b, loc, lo+site.Off, hi-1+site.Off, &res)
					per += m
				case comm.SiteStrided:
					var res comm.SpanSet
					st := site.Stride
					if st <= 0 {
						st = 1
					}
					m, _ := comm.PredictStream(b, loc, lo*st, (hi-1)*st, st, comm.DefaultRunBlock, &res)
					per += m
				case comm.SiteBlocked:
					div := site.Stride
					if div <= 0 {
						div = 1
					}
					var res comm.SpanSet
					m, _ := comm.PredictStream(b, loc, lo/div, (hi-1)/div, 1, comm.DefaultRunBlock, &res)
					per += m
				case comm.SiteOwner:
					// Owner-computes: no remote traffic.
				case comm.SiteIrregular:
					// Inspector–executor: the index set is unknowable
					// statically, but the schedule shape is not — at worst
					// one bulk gather per remote home whose block overlaps
					// the sweep's index window (first sweep builds, later
					// sweeps replay the memoized schedule at the same
					// per-task message cost).
					m, _ := comm.PredictInspector(b, loc, 0, n-1)
					per += m
				default:
					per += comm.PredictFine(b, loc, lo, hi-1, 1)
				}
			}
			total := per * sweeps
			if total > 0 {
				msgs += total
				perVar[site.Name] += total
				p.commCycles[site.Instr] += float64(total) * float64(p.commCycles1(8))
			}
		}
	}
	return msgs, perVar
}
