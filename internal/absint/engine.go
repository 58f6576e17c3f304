package absint

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// widenAfter is how many times a loop header is re-joined before the
// engine switches from Join to Widen there. A couple of plain joins first
// lets short ascending chains (constant → small interval) stabilize
// exactly before extrapolation throws bounds away.
const widenAfter = 3

// maxPasses bounds full RPO sweeps; with widening the fixpoint converges
// in a handful of passes, this is a hard backstop for hostile CFGs.
const maxPasses = 64

// Result holds the fixpoint: the abstract state at entry to each block.
type Result struct {
	In      []*Env // indexed by block ID; valid only where Reached
	Reached []bool // block reachable under the abstraction
	d       *IntDomain
}

// Run computes the forward dataflow fixpoint of d over f: reverse
// postorder sweeps with Join at merge points and Widen at natural-loop
// headers once a header has been visited widenAfter times.
func Run(f *ir.Func, d *IntDomain) *Result {
	n := len(f.Blocks)
	res := &Result{
		In:      make([]*Env, n),
		Reached: make([]bool, n),
		d:       d,
	}
	if n == 0 {
		return res
	}
	rpo := cfg.ReversePostorder(f)
	heads := cfg.LoopHeads(f)
	visits := make([]int, n)

	entry := f.Blocks[0]
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, b := range rpo {
			var s *Env
			have := false
			if b == entry {
				s = d.Entry(f)
				have = true
			}
			for _, p := range b.Preds {
				if !res.Reached[p.ID] {
					continue
				}
				ps := res.outState(res.In[p.ID], p, b)
				if !have {
					s, have = ps, true
				} else {
					s, _ = d.Join(s, ps)
				}
			}
			if !have {
				continue
			}
			if !res.Reached[b.ID] {
				res.In[b.ID] = s
				res.Reached[b.ID] = true
				changed = true
			} else if heads[b.ID] && visits[b.ID] >= widenAfter {
				var ch bool
				res.In[b.ID], ch = d.Widen(res.In[b.ID], s)
				changed = changed || ch
			} else {
				var ch bool
				res.In[b.ID], ch = d.Join(res.In[b.ID], s)
				changed = changed || ch
			}
			visits[b.ID]++
		}
		if !changed {
			break
		}
	}
	return res
}

// outState transfers p's entry state through its body and refines along
// the edge p → succ when p ends in a branch.
func (r *Result) outState(in *Env, p, succ *ir.Block) *Env {
	s := r.d.Copy(in)
	for _, instr := range p.Instrs {
		s = r.d.Transfer(s, instr)
	}
	if t := p.Terminator(); t != nil && t.Op == ir.OpBr && len(t.Targets) == 2 {
		if t.Targets[0] == succ && t.Targets[1] != succ {
			s = r.d.Refine(s, t, true)
		} else if t.Targets[1] == succ && t.Targets[0] != succ {
			s = r.d.Refine(s, t, false)
		}
	}
	return s
}

// At replays the block prefix to produce the abstract state immediately
// before instr. Returns nil and false when instr's block was not
// reached.
func (r *Result) At(instr *ir.Instr) (*Env, bool) {
	b := instr.Block
	if b == nil || b.ID >= len(r.Reached) || !r.Reached[b.ID] {
		return nil, false
	}
	s := r.d.Copy(r.In[b.ID])
	for _, in := range b.Instrs {
		if in == instr {
			return s, true
		}
		s = r.d.Transfer(s, in)
	}
	return s, true
}

// Out replays the whole block to produce the abstract state at its end.
func (r *Result) Out(b *ir.Block) (*Env, bool) {
	if b == nil || b.ID >= len(r.Reached) || !r.Reached[b.ID] {
		return nil, false
	}
	s := r.d.Copy(r.In[b.ID])
	for _, in := range b.Instrs {
		s = r.d.Transfer(s, in)
	}
	return s, true
}
