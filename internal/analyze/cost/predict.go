// Package cost is the symbolic static cost engine: it predicts the
// per-variable data-centric blame ranking and the comm-message volume of
// a program without a profiled run. The engine runs the interval/affine
// abstract domain (internal/absint) over every reachable function to
// derive symbolic loop trip counts and block frequencies, prices each
// instruction with the VM's own cost table plus the executor's modeled
// extras, attributes the resulting cycle mass through the same
// core.Analysis attribution the dynamic profiler uses, and counts comm
// messages with a skeleton run of the VM (comm.go). See DESIGN.md
// "Static cost model" for the formulas and the documented
// approximations.
package cost

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/vm"
)

// Options configures a prediction. The VM config supplies everything the
// dynamic run would: locale/core counts, config-const overrides, the
// cost model and the aggregation mode.
type Options struct {
	VM   vm.Config
	Core core.Options
}

// DefaultOptions mirrors blame.DefaultConfig's run environment.
func DefaultOptions() Options {
	return Options{VM: vm.DefaultConfig(), Core: core.DefaultOptions()}
}

// predictor carries all intermediate state of one prediction.
type predictor struct {
	prog *ir.Program
	opts Options

	actx     *analyze.Context
	analysis *core.Analysis
	costTab  []uint64

	cfgVals map[string]absint.Val

	// Per-function abstract interpretation state.
	seeds map[*ir.Func]map[*ir.Var]absint.Val
	pins  map[*ir.Func]map[*ir.Var]absint.Val
	res   map[*ir.Func]*absint.Result
	loops map[*ir.Func][]*cfg.Loop
	trips map[*cfg.Loop]absint.NumVal
	mids  map[*ir.Var]float64 // pinned symbol → interval midpoint

	reach []*ir.Func // reachable funcs, discovery order

	inv   map[*ir.Func]float64
	freq  map[*ir.Func][]float64 // relative block frequency, by block ID
	paths map[*ir.Func][]wpath

	commCycles map[*ir.Instr]float64
	notes      []string
	noteSet    map[string]bool

	rebinds map[*ir.Func]uint64 // bitset: param i may be rebound
}

// paramRebinds computes, per function, which parameters may have their
// binding replaced — directly (param = x, alias rebinds) or by passing
// the parameter by ref to a callee that rebinds it. Element and field
// stores through a parameter mutate the referenced storage, not the
// binding, so they are excluded: this feeds the abstract transfer's
// capture havoc, which tracks bindings (scalars, domains, array
// descriptors), not array contents.
func (p *predictor) paramRebinds() map[*ir.Func]uint64 {
	if p.rebinds != nil {
		return p.rebinds
	}
	bits := make(map[*ir.Func]uint64, len(p.prog.Funcs))
	paramIx := func(f *ir.Func, v *ir.Var) int {
		for i, prm := range f.Params {
			if prm == v {
				return i
			}
		}
		return -1
	}
	for _, f := range p.prog.Funcs {
		var m uint64
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				dv := in.Def()
				if dv == nil || in.IsStoreThrough() {
					continue
				}
				if i := paramIx(f, dv); i >= 0 && i < 64 {
					m |= 1 << i
				}
			}
		}
		bits[f] = m
	}
	// Transitive closure over ref argument passing.
	for changed := true; changed; {
		changed = false
		for _, f := range p.prog.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, bd := range in.Bindings() {
						for j, a := range bd.Actuals {
							k := len(bd.Idx) + j
							if k >= 64 || bits[bd.Callee]&(1<<k) == 0 {
								continue
							}
							if i := paramIx(f, a); i >= 0 && i < 64 && bits[f]&(1<<i) == 0 {
								bits[f] |= 1 << i
								changed = true
							}
						}
					}
				}
			}
		}
	}
	p.rebinds = bits
	return p.rebinds
}

// wpath is one weighted call path from a function up to main.
type wpath struct {
	frames []core.Frame // outward: immediate caller first
	w      float64
}

func (p *predictor) note(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	if p.noteSet == nil {
		p.noteSet = make(map[string]bool)
	}
	if p.noteSet[s] {
		return
	}
	p.noteSet[s] = true
	p.notes = append(p.notes, s)
}

// bindConfigs turns -Cname=value overrides into abstract values.
func (p *predictor) bindConfigs() {
	p.cfgVals = make(map[string]absint.Val)
	for name, raw := range p.opts.VM.Configs {
		if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
			p.cfgVals[name] = absint.ConstV(n)
			continue
		}
		switch raw {
		case "true":
			p.cfgVals[name] = absint.BoolV(absint.BTrue)
		case "false":
			p.cfgVals[name] = absint.BoolV(absint.BFalse)
		}
		// Real/string configs stay Top: they rarely drive trip counts.
	}
}

// predeclaredSeed binds the runtime's synthetic globals.
func (p *predictor) predeclaredSeed() map[*ir.Var]absint.Val {
	seed := make(map[*ir.Var]absint.Val)
	nl := int64(p.opts.VM.NumLocales)
	if nl <= 0 {
		nl = 1
	}
	for _, g := range p.prog.Globals {
		switch g.Name {
		case "numLocales":
			seed[g] = absint.ConstV(nl)
		case "Locales":
			seed[g] = absint.Val{Kind: absint.VLocales}
		case "here":
			seed[g] = absint.Val{Kind: absint.VLocale, Num: absint.ConstNum(0)}
		}
	}
	return seed
}

// newDomain builds the interval domain for f with the current seeds and
// pins.
func (p *predictor) newDomain(f *ir.Func) *absint.IntDomain {
	rb := p.paramRebinds()
	return &absint.IntDomain{
		Fn:       f,
		Seed:     p.seeds[f],
		Pins:     p.pins[f],
		Configs:  p.cfgVals,
		NumCores: int64(p.opts.VM.NumCores),
		RebindsParam: func(callee *ir.Func, i int) bool {
			return i >= 64 || rb[callee]&(1<<i) != 0
		},
	}
}

// analyzeFunc runs the fixpoint for f, iterating induction-variable
// discovery: each round pins newly-recognized counted-loop induction
// variables to a symbolic value over their bound interval and reruns, so
// nested bounds that depend on outer induction variables become affine
// in them.
func (p *predictor) analyzeFunc(f *ir.Func) {
	if p.pins[f] == nil {
		p.pins[f] = make(map[*ir.Var]absint.Val)
	}
	p.pinIndexParams(f)
	for round := 0; round < 4; round++ {
		r := absint.Run(f, p.newDomain(f))
		p.res[f] = r
		if !p.pinInductionVars(f, r) {
			break
		}
	}
	if p.loops[f] == nil {
		p.loops[f] = cfg.NaturalLoops(f)
	}
}

// pinIndexParams pins the index parameters of outlined parallel bodies
// to symbols ranging over the spawn's abstract iteration space.
func (p *predictor) pinIndexParams(f *ir.Func) {
	sp := p.actx.SpawnSite(f)
	if sp == nil {
		return
	}
	idx := sp.BindingOf(f).Idx
	if len(idx) == 0 {
		return
	}
	space := p.spawnSpace(sp)
	for i, prm := range idx {
		rng := absint.TopInterval()
		if dims, ok := space.Space(); ok && i < len(dims) {
			rng = absint.MakeInterval(dims[i].Lo.Rng.Lo, dims[i].Hi.Rng.Hi)
		}
		p.pins[f][prm] = absint.NumV(absint.SymNum(prm, rng))
		p.setMid(prm, rng)
	}
}

// spawnSpace evaluates the abstract iteration space of a spawn site in
// its spawner's summary.
func (p *predictor) spawnSpace(sp *ir.Instr) absint.Val {
	if sp.Spawn == nil || sp.Spawn.Iter == nil || sp.Block == nil {
		return absint.Top()
	}
	spawner := sp.Block.Func
	r := p.res[spawner]
	if r == nil {
		return absint.Top()
	}
	env, ok := r.At(sp)
	if !ok {
		return absint.Top()
	}
	v := env.Get(sp.Spawn.Iter)
	if v.Kind == absint.VLocales {
		nl := int64(p.opts.VM.NumLocales)
		if nl <= 0 {
			nl = 1
		}
		return absint.Val{Kind: absint.VRange, Dims: [3]absint.RangeInfo{{
			Lo: absint.ConstNum(0), Hi: absint.ConstNum(nl - 1), Stride: 1,
		}}}
	}
	return v
}

// pinInductionVars recognizes counted serial loops (the same shape
// analyze.constTrip matches: head condition iv <= hi, init by move
// outside the loop, constant-step increment inside) and pins their
// induction variables. Reports whether any new pin was added.
func (p *predictor) pinInductionVars(f *ir.Func, r *absint.Result) bool {
	loops := cfg.NaturalLoops(f)
	p.loops[f] = loops
	added := false
	for _, l := range loops {
		iv, lo, hi, step, ok := p.countedLoop(f, l, r)
		if !ok {
			continue
		}
		if _, done := p.pins[f][iv]; done {
			// Refresh the trip estimate with the latest bounds.
			p.trips[l] = tripOf(lo, hi, step)
			continue
		}
		rng := absint.MakeInterval(lo.Rng.Lo, hi.Rng.Hi)
		p.pins[f][iv] = absint.NumV(absint.SymNum(iv, rng))
		p.setMid(iv, rng)
		p.trips[l] = tripOf(lo, hi, step)
		added = true
	}
	return added
}

func tripOf(lo, hi absint.NumVal, step int64) absint.NumVal {
	if step <= 0 {
		step = 1
	}
	n := hi.Sub(lo)
	if step != 1 {
		n = n.Div(absint.ConstNum(step))
	}
	n = n.Add(absint.ConstNum(1))
	if n.Rng.Lo < 0 {
		n.Rng.Lo = 0
	}
	return n
}

// countedLoop matches l against the counted-loop shape and returns the
// induction variable, its abstract bounds and the constant step.
func (p *predictor) countedLoop(f *ir.Func, l *cfg.Loop, r *absint.Result) (iv *ir.Var, lo, hi absint.NumVal, step int64, ok bool) {
	head := l.Head
	term := head.Terminator()
	if term == nil || term.Op != ir.OpBr || term.A == nil {
		return nil, lo, hi, 0, false
	}
	def := head.DefBefore(term.A, term)
	if def == nil || def.Op != ir.OpBin {
		return nil, lo, hi, 0, false
	}
	if def.BinOp != token.LE && def.BinOp != token.LT {
		return nil, lo, hi, 0, false
	}
	iv = def.A
	if iv == nil || !l.Contains(term.Targets[0]) {
		return nil, lo, hi, 0, false
	}
	// Step: an in-loop self-increment iv = iv + c (possibly through a
	// temp move).
	step = 0
	for _, b := range f.Blocks {
		if !l.Contains(b) || step != 0 {
			continue
		}
		for _, in := range b.Instrs {
			if in.Def() != iv {
				continue
			}
			src := in
			if in.Op == ir.OpMove {
				if up := b.DefBefore(in.A, in); up != nil {
					src = up
				}
			}
			if src.Op == ir.OpBin && src.BinOp == token.PLUS {
				var cvar *ir.Var
				if src.A == iv {
					cvar = src.B
				} else if src.B == iv {
					cvar = src.A
				}
				if cvar != nil {
					if env, okAt := r.At(src); okAt {
						if c, isC := env.Get(cvar).AsNum().IsConst(); isC && c > 0 {
							step = c
						}
					}
				}
			}
		}
	}
	if step == 0 {
		return nil, lo, hi, 0, false
	}
	// Lower bound: join of iv over the entry edges (preds outside the
	// loop, post-transfer).
	loSet := false
	for _, pred := range head.Preds {
		if l.Contains(pred) {
			continue
		}
		out, okOut := r.Out(pred)
		if !okOut {
			continue
		}
		v := out.Get(iv).AsNum()
		if !loSet {
			lo, loSet = v, true
		} else {
			lo = joinNum(lo, v)
		}
	}
	if !loSet {
		return nil, lo, hi, 0, false
	}
	// On re-analysis rounds the entry value is masked by iv's own pin
	// (iv = sym(iv) over [lo0, hi0]); recover the original lower bound
	// from the pin range's floor.
	if lo.Aff != nil && lo.Aff.Terms[iv] != 0 {
		if lo.Rng.Lo <= -absint.Inf {
			return nil, lo, hi, 0, false
		}
		lo = absint.ConstNum(lo.Rng.Lo)
	}
	// Upper bound: the comparison's right side at the head.
	env, okAt := r.At(def)
	if !okAt {
		return nil, lo, hi, 0, false
	}
	hi = env.Get(def.B).AsNum()
	if def.BinOp == token.LT {
		hi = hi.Sub(absint.ConstNum(1))
	}
	return iv, lo, hi, step, true
}

func joinNum(a, b absint.NumVal) absint.NumVal {
	av, bv := absint.NumV(a), absint.NumV(b)
	return av.Join(bv).AsNum()
}

func (p *predictor) setMid(v *ir.Var, rng absint.Interval) {
	if rng.Bounded() {
		p.mids[v] = (float64(rng.Lo) + float64(rng.Hi)) / 2
	} else if rng.Lo > -absint.Inf {
		p.mids[v] = float64(rng.Lo) + 8
	} else {
		p.mids[v] = 16
	}
}

// scalar turns an abstract count into a float point estimate: exact for
// constants, the midpoint substitution for affine forms (exact in
// expectation for bounds linear in an enclosing induction variable),
// interval midpoint otherwise, and a documented default when unbounded.
func (p *predictor) scalar(n absint.NumVal, def float64) float64 {
	if v, ok := n.IsConst(); ok {
		return clampF(float64(v))
	}
	if n.Aff != nil && n.Aff.Const < absint.Inf && n.Aff.Const > -absint.Inf {
		out := float64(n.Aff.Const)
		ok := true
		for v, c := range n.Aff.Terms {
			m, have := p.mids[v]
			if !have {
				ok = false
				break
			}
			out += float64(c) * m
		}
		if ok {
			return clampF(out)
		}
	}
	if n.Rng.Bounded() {
		return clampF((float64(n.Rng.Lo) + float64(n.Rng.Hi)) / 2)
	}
	return def
}

func clampF(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1e15 {
		return 1e15
	}
	return v
}

// discover walks the call/spawn graph from main + module_init, runs the
// per-function summaries, and propagates abstract arguments into callee
// seeds until stable.
func (p *predictor) discover() {
	base := p.predeclaredSeed()
	roots := []*ir.Func{}
	if p.prog.ModuleInit != nil {
		roots = append(roots, p.prog.ModuleInit)
	}
	if p.prog.Main != nil {
		roots = append(roots, p.prog.Main)
	}
	globalSeed := base
	for pass := 0; pass < 5; pass++ {
		changed := false
		seen := make(map[*ir.Func]bool)
		p.reach = p.reach[:0]
		queue := append([]*ir.Func{}, roots...)
		for _, f := range queue {
			seen[f] = true
		}
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			p.reach = append(p.reach, f)
			// Merge global bindings into the seed.
			if p.seeds[f] == nil {
				p.seeds[f] = make(map[*ir.Var]absint.Val)
			}
			for v, x := range globalSeed {
				if _, have := p.seeds[f][v]; !have {
					p.seeds[f][v] = x
					changed = true
				}
			}
			p.analyzeFunc(f)
			if f == p.prog.ModuleInit {
				// Export the globals module_init computed to everyone else.
				globalSeed = p.moduleGlobals(base)
			}
			// Propagate arguments to callees.
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, bd := range in.Bindings() {
						if p.seedCall(f, in, bd) {
							changed = true
						}
						if !seen[bd.Callee] {
							seen[bd.Callee] = true
							queue = append(queue, bd.Callee)
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// seedCall joins the abstract arguments at one call/spawn site into the
// parameter seeds of one body it binds (index formals are pinned
// separately). Reports change.
func (p *predictor) seedCall(f *ir.Func, in *ir.Instr, bd ir.Binding) bool {
	r := p.res[f]
	if r == nil {
		return false
	}
	env, ok := r.At(in)
	if !ok {
		return false
	}
	seeds := p.seeds[bd.Callee]
	if seeds == nil {
		seeds = make(map[*ir.Var]absint.Val)
		p.seeds[bd.Callee] = seeds
	}
	changed := false
	for i, prm := range bd.Formals {
		av := env.Get(bd.Actuals[i])
		old, have := seeds[prm]
		var nv absint.Val
		if !have {
			nv = av
		} else {
			nv = old.Join(av)
		}
		if !have || !nv.Equal(old) {
			seeds[prm] = nv
			changed = true
		}
	}
	return changed
}

// moduleGlobals extracts the global bindings at module_init exit.
func (p *predictor) moduleGlobals(base map[*ir.Var]absint.Val) map[*ir.Var]absint.Val {
	out := make(map[*ir.Var]absint.Val, len(base))
	for v, x := range base {
		out[v] = x
	}
	mi := p.prog.ModuleInit
	r := p.res[mi]
	if r == nil {
		return out
	}
	for _, b := range mi.Blocks {
		term := b.Terminator()
		if term == nil || term.Op != ir.OpRet {
			continue
		}
		env, ok := r.Out(b)
		if !ok {
			continue
		}
		for v, x := range env.Vars {
			if v.IsGlobal {
				if old, have := out[v]; have {
					out[v] = old.Join(x)
				} else {
					out[v] = x
				}
			}
		}
	}
	return out
}

// frequencies computes the per-block execution frequency of each
// reachable function relative to one invocation: the product of
// enclosing loop trip counts and non-loop branch probabilities.
func (p *predictor) frequencies() {
	p.freq = make(map[*ir.Func][]float64, len(p.reach))
	for _, f := range p.reach {
		p.freq[f] = p.funcFreq(f)
	}
}

func (p *predictor) funcFreq(f *ir.Func) []float64 {
	n := len(f.Blocks)
	freq := make([]float64, n)
	r := p.res[f]
	loops := p.loops[f]
	dom := cfg.Dominators(f)
	cdeps := cfg.ControlDeps(f)
	for _, b := range f.Blocks {
		if r == nil || b.ID >= len(r.Reached) || !r.Reached[b.ID] {
			continue
		}
		w := 1.0
		// Loop trip products.
		for _, l := range loops {
			if !l.Contains(b) {
				continue
			}
			t, ok := p.trips[l]
			if !ok {
				w *= 16 // unrecognized loop shape: documented default
				p.note("loop at %s: unrecognized shape, default trip 16", l.Head.Func.Name)
				continue
			}
			w *= p.scalar(t, 16)
		}
		// Branch probabilities for control dependences that are not loop
		// exits (those are accounted by the trip product).
		for _, br := range cdeps[b.ID] {
			if br.Op != ir.OpBr || br.Block == nil {
				continue
			}
			if isLoopExit(br, loops) && inSameLoop(br.Block, b, loops) {
				continue
			}
			side, known := branchSide(dom, br, b)
			if !known {
				continue
			}
			w *= p.branchProb(r, br, side)
		}
		freq[b.ID] = w
	}
	return freq
}

func isLoopExit(br *ir.Instr, loops []*cfg.Loop) bool {
	for _, l := range loops {
		if !l.Contains(br.Block) {
			continue
		}
		for _, t := range br.Targets {
			if t != nil && !l.Contains(t) {
				return true
			}
		}
	}
	return false
}

func inSameLoop(a, b *ir.Block, loops []*cfg.Loop) bool {
	for _, l := range loops {
		if l.Contains(a) && l.Contains(b) {
			return true
		}
	}
	// Blocks outside any loop share the "no loop" context.
	for _, l := range loops {
		if l.Contains(a) != l.Contains(b) {
			return false
		}
	}
	return true
}

// branchSide decides which way br must go to reach b: the target that
// dominates b (reconvergent blocks report unknown).
func branchSide(dom *cfg.DomTree, br *ir.Instr, b *ir.Block) (taken bool, known bool) {
	t0, t1 := br.Targets[0], br.Targets[1]
	if t0 != nil && dom.Dominates(t0, b) && (t1 == nil || !dom.Dominates(t1, b)) {
		return true, true
	}
	if t1 != nil && dom.Dominates(t1, b) && (t0 == nil || !dom.Dominates(t0, b)) {
		return false, true
	}
	if t0 == b {
		return true, true
	}
	if t1 == b {
		return false, true
	}
	return false, false
}

// branchProb estimates P(branch taken-side == side).
func (p *predictor) branchProb(r *absint.Result, br *ir.Instr, side bool) float64 {
	env, ok := r.At(br)
	if !ok {
		return 0.5
	}
	pTrue := 0.5
	cv := env.Get(br.A)
	switch cv.B {
	case absint.BTrue:
		pTrue = 1
	case absint.BFalse:
		pTrue = 0
	default:
		if def := br.Block.DefBefore(br.A, br); def != nil && def.Op == ir.OpBin {
			a := env.Get(def.A).AsNum()
			b2 := env.Get(def.B).AsNum()
			pTrue = cmpProb(def.BinOp, a, b2)
		}
	}
	if side {
		return pTrue
	}
	return 1 - pTrue
}

// cmpProb estimates P(a op b) from the interval of a-b assuming a
// uniform distribution over it.
func cmpProb(op token.Kind, a, b absint.NumVal) float64 {
	d := a.Sub(b).Rng
	if d.IsEmpty() || !d.Bounded() {
		return 0.5
	}
	width := float64(d.Hi-d.Lo) + 1
	countBelow := func(x int64) float64 { // |{v in d : v < x}|
		if x <= d.Lo {
			return 0
		}
		if x > d.Hi {
			return width
		}
		return float64(x - d.Lo)
	}
	switch op {
	case token.LT:
		return countBelow(0) / width
	case token.LE:
		return countBelow(1) / width
	case token.GT:
		return 1 - countBelow(1)/width
	case token.GE:
		return 1 - countBelow(0)/width
	case token.EQ:
		if d.Contains(0) {
			return 1 / width
		}
		return 0
	case token.NEQ:
		if d.Contains(0) {
			return 1 - 1/width
		}
		return 1
	}
	return 0.5
}

// invocations solves the call-graph flow equations for expected
// invocation counts by Jacobi iteration (converges immediately for the
// DAG call graphs of the benchmark suite; recursion is cut off after the
// pass bound with a note).
func (p *predictor) invocations() {
	p.inv = make(map[*ir.Func]float64, len(p.reach))
	const passes = 30
	for pass := 0; pass < passes; pass++ {
		next := make(map[*ir.Func]float64, len(p.reach))
		if p.prog.ModuleInit != nil {
			next[p.prog.ModuleInit] = 1
		}
		if p.prog.Main != nil {
			next[p.prog.Main] = 1
		}
		for _, f := range p.reach {
			fi := p.inv[f]
			if fi == 0 {
				continue
			}
			freq := p.freq[f]
			for _, b := range f.Blocks {
				w := fi * freq[b.ID]
				if w == 0 {
					continue
				}
				for _, in := range b.Instrs {
					for ci, callee := range in.Callees() {
						next[callee] += w * p.callMultiplier(in, ci)
					}
				}
			}
		}
		if mapsClose(p.inv, next) {
			p.inv = next
			return
		}
		p.inv = next
	}
	p.note("invocation fixpoint hit the pass bound (recursive call graph): counts are a lower bound")
}

// callMultiplier is how many times one execution of the site invokes the
// callee: 1 for calls/begin/on/cobegin bodies, the iteration-space size
// for forall/coforall bodies.
func (p *predictor) callMultiplier(in *ir.Instr, bodyIx int) float64 {
	if in.Op != ir.OpSpawn || in.Spawn == nil {
		return 1
	}
	switch in.Spawn.Kind {
	case ir.SpawnForall, ir.SpawnCoforall:
		space := p.spawnSpace(in)
		return p.scalar(space.TripCount(), 16)
	}
	return 1
}

func mapsClose(a, b map[*ir.Func]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb := b[k]
		diff := va - vb
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+va+vb) {
			return false
		}
	}
	return true
}

// callPaths builds up to three weighted call paths per function, used to
// attribute mass through the interprocedural transfer the dynamic
// profiler applies to real stacks.
func (p *predictor) callPaths() {
	const topK = 3
	p.paths = make(map[*ir.Func][]wpath, len(p.reach))
	if p.prog.Main != nil {
		p.paths[p.prog.Main] = []wpath{{w: 1}}
	}
	if p.prog.ModuleInit != nil {
		p.paths[p.prog.ModuleInit] = []wpath{{w: 1}}
	}
	// Propagate in discovery order, iterated a few times so deeper
	// callees see their callers' paths.
	for pass := 0; pass < 4; pass++ {
		for _, f := range p.reach {
			fi := p.inv[f]
			if fi == 0 || len(p.paths[f]) == 0 {
				continue
			}
			freq := p.freq[f]
			for _, b := range f.Blocks {
				w := fi * freq[b.ID]
				if w == 0 {
					continue
				}
				for _, in := range b.Instrs {
					for ci, callee := range in.Callees() {
						if callee == f {
							continue
						}
						contrib := w * p.callMultiplier(in, ci)
						share := contrib / maxF(p.inv[callee], 1e-12)
						for _, pp := range p.paths[f] {
							cand := wpath{
								frames: append([]core.Frame{{Fn: f, Instr: in}}, pp.frames...),
								w:      share * pp.w,
							}
							p.paths[callee] = addPath(p.paths[callee], cand, topK)
						}
					}
				}
			}
		}
	}
	// Normalize weights.
	for f, ps := range p.paths {
		sum := 0.0
		for _, pp := range ps {
			sum += pp.w
		}
		if sum <= 0 {
			continue
		}
		for i := range ps {
			ps[i].w /= sum
		}
		p.paths[f] = ps
	}
}

func addPath(ps []wpath, cand wpath, topK int) []wpath {
	// Replace an existing path with the same frame sequence.
	for i := range ps {
		if samePath(ps[i].frames, cand.frames) {
			if cand.w > ps[i].w {
				ps[i].w = cand.w
			}
			return ps
		}
	}
	ps = append(ps, cand)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].w > ps[j].w })
	if len(ps) > topK {
		ps = ps[:topK]
	}
	return ps
}

func samePath(a, b []core.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
