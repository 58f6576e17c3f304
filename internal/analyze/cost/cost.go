package cost

import (
	"sort"
	"strings"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/vm"
)

// VarPred is one row of the predicted data-centric blame ranking, shaped
// like postmortem.VarRow so the views can join the two on Name/Context.
type VarPred struct {
	Name    string
	Type    string
	Context string
	IsPath  bool
	Sym     *sem.Symbol

	// Cycles is the predicted cycle mass blamed on this entity; Blame is
	// its share of the predicted total (the static analogue of
	// BlamePercentage).
	Cycles float64
	Blame  float64
	// Msgs is the predicted comm-message count charged to this variable
	// (Block-distributed arrays only).
	Msgs int64
}

// Prediction is the full output of the static cost engine.
type Prediction struct {
	// TotalCycles is the predicted execution mass (cycles summed over all
	// tasks — cost, not makespan).
	TotalCycles float64
	// Vars is the predicted blame ranking, sorted by descending Cycles
	// (ties by name), mirroring the dynamic profile's ordering.
	Vars []VarPred

	// Msgs / Bytes are the predicted comm totals; MsgsByClass splits them
	// by aggregation mechanism (prefetch/stream/flush/fetch/fine) and
	// MsgsByVar by owning array variable — the same keying as
	// comm.Stats.PerVar.
	Msgs        int64
	Bytes       int64
	MsgsByClass map[string]int64
	MsgsByVar   map[string]int64

	// WalkOK reports whether the skeleton VM run that traces comm
	// completed; when false the comm fields stay empty.
	WalkOK bool
	// Notes lists the documented approximations taken on this program.
	Notes []string
}

// Row returns the predicted row for a variable name, if present.
func (p *Prediction) Row(name string) (VarPred, bool) {
	for _, r := range p.Vars {
		if r.Name == name {
			return r, true
		}
	}
	return VarPred{}, false
}

// Predict runs the symbolic static cost engine over prog: abstract
// interpretation for loop trips and block frequencies, a skeleton VM run
// for message counts, the VM's own cost table plus the executor's
// modeled extras for cycle mass, and the blame core's AttributeSample
// for data-centric attribution — no profiled run of the program.
func Predict(prog *ir.Program, opts Options) *Prediction {
	p := newPredictor(prog, opts)
	p.bindConfigs()
	p.discover()
	p.frequencies()
	p.invocations()
	p.callPaths()

	pred := &Prediction{
		MsgsByClass: make(map[string]int64),
		MsgsByVar:   make(map[string]int64),
	}

	// Comm prediction: a skeleton VM run when locales can disagree.
	p.commCycles = make(map[*ir.Instr]float64)
	if p.opts.VM.NumLocales > 1 {
		if err := p.traceComm(pred); err == nil {
			pred.WalkOK = true
		} else {
			p.note("comm not predicted: skeleton run aborted (%v)", err)
		}
	}

	p.attribute(pred)
	pred.Notes = p.notes
	return pred
}

func newPredictor(prog *ir.Program, opts Options) *predictor {
	return &predictor{
		prog:     prog,
		opts:     opts,
		actx:     analyze.NewContext(prog),
		analysis: core.AnalyzeCached(prog, opts.Core),
		costTab:  vm.StaticCostTable(prog),
		seeds:    make(map[*ir.Func]map[*ir.Var]absint.Val),
		pins:     make(map[*ir.Func]map[*ir.Var]absint.Val),
		res:      make(map[*ir.Func]*absint.Result),
		loops:    make(map[*ir.Func][]*cfg.Loop),
		trips:    make(map[*cfg.Loop]absint.NumVal),
		mids:     make(map[*ir.Var]float64),
	}
}

// attribute prices every reachable instruction and distributes the mass
// through the blame core's attribution, exactly as postmortem does for
// dynamic samples.
func (p *predictor) attribute(pred *Prediction) {
	type rowKey struct {
		sym  *sem.Symbol
		path string
	}
	rows := make(map[rowKey]*VarPred)
	msgsBySym := make(map[string]int64)
	for name, n := range pred.MsgsByVar {
		msgsBySym[name] = n
	}

	record := func(b core.Blamed, mass float64) {
		var k rowKey
		if b.Path != "" {
			k = rowKey{path: b.Path}
		} else {
			k = rowKey{sym: b.Sym}
		}
		r, ok := rows[k]
		if !ok {
			r = &VarPred{}
			if b.Path != "" {
				r.Name, r.IsPath = b.Path, true
				r.Context = "main"
				if b.Root != nil && b.Root.Sym != nil {
					r.Context = b.Root.Sym.Context()
				}
				if b.Root != nil && b.Root.Type != nil {
					r.Type = b.Root.Type.String()
				}
			} else {
				r.Name, r.Sym = b.Sym.Name, b.Sym
				r.Context = b.Sym.Context()
				if b.Sym.Type != nil {
					r.Type = b.Sym.Type.String()
				}
			}
			rows[k] = r
		}
		r.Cycles += mass
	}

	var total float64
	for _, f := range p.reach {
		fi := p.inv[f]
		if fi <= 0 {
			continue
		}
		freq := p.freq[f]
		paths := p.paths[f]
		for _, b := range f.Blocks {
			w := fi * freq[b.ID]
			if w <= 0 {
				continue
			}
			for _, in := range b.Instrs {
				mass := w * p.instrMass(f, in)
				mass += p.commCycles[in] // absolute, counted by the skeleton run
				if mass <= 0 {
					continue
				}
				total += mass
				p.attributeMass(f, in, mass, paths, record)
			}
		}
	}
	if total <= 0 {
		total = 1
	}

	for _, r := range rows {
		r.Blame = r.Cycles / total
		if n, ok := msgsBySym[r.Name]; ok {
			r.Msgs = n
		}
		pred.Vars = append(pred.Vars, *r)
	}
	sort.Slice(pred.Vars, func(i, j int) bool {
		a, b := pred.Vars[i], pred.Vars[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Name < b.Name
	})
	pred.TotalCycles = total
}

// attributeMass runs one instruction's mass through AttributeSample over
// each of the function's weighted call paths.
func (p *predictor) attributeMass(f *ir.Func, in *ir.Instr, mass float64, paths []wpath, record func(core.Blamed, float64)) {
	if len(paths) == 0 {
		paths = []wpath{{w: 1}}
	}
	for _, pp := range paths {
		frames := make([]core.Frame, 0, 1+len(pp.frames))
		frames = append(frames, core.Frame{Fn: f, Instr: in})
		frames = append(frames, pp.frames...)
		for _, b := range p.analysis.AttributeSample(frames) {
			record(b, mass*pp.w)
		}
	}
}

// instrMass is the predicted cycle cost of one execution of in: the
// static table entry plus the executor's value-dependent extras, modeled
// from the abstract state. The table and scale match the interpreter's
// charging exactly; the extras are the documented approximations.
func (p *predictor) instrMass(f *ir.Func, in *ir.Instr) float64 {
	base := float64(p.costTab[in.Addr])
	c := vm.Costs()
	sc := func(cycles float64) float64 {
		if cycles <= 0 {
			return 0
		}
		return float64(c.ScaleCost(p.prog.Optimized, uint64(cycles)))
	}
	switch in.Op {
	case ir.OpIndex, ir.OpIndexStore, ir.OpRefElem:
		// Composite element copy: (flatWords-1) x PerElem.
		if fw := p.elemWords(in); fw > 1 {
			base += sc(float64(fw-1) * float64(c.PerElem))
		}
	case ir.OpMove:
		if n := p.bulkSize(f, in, in.A); n > 1 {
			base += sc(float64(n-1) * float64(c.PerElem))
		}
	case ir.OpBin:
		// Promoted (elementwise) tuple/array operations.
		if n := p.bulkSize(f, in, in.Dst); n > 1 {
			base += sc(float64(n) * float64(c.PerElem))
			if in.Dst != nil {
				if _, isT := in.Dst.Type.(*types.TupleType); isT {
					base += sc(float64(c.TupleBase) + float64(n)*float64(c.TuplePerEl))
				}
			}
		}
	case ir.OpAllocArray:
		n := p.arraySize(f, in)
		ew := int64(1)
		if at, ok := in.Dst.Type.(*types.ArrayType); ok && at.Elem != nil {
			if s := at.Elem.Size() / 8; s > 1 {
				ew = s
			}
		}
		base += sc(float64(n) * float64(ew) * float64(c.AllocPerEl))
	case ir.OpCall:
		// By-value composite arguments copy in.
		if in.Callee != nil {
			for i, prm := range in.Callee.Params {
				if prm.IsRef || i >= len(in.Args) {
					continue
				}
				if n := p.bulkSize(f, in, in.Args[i]); n > 1 {
					base += sc(float64(n-1) * float64(c.PerElem))
				}
			}
		}
	case ir.OpBuiltin:
		base += sc(p.builtinExtra(f, in))
	case ir.OpSpawn:
		base += sc(p.spawnExtra(f, in))
	}
	return base
}

// builtinExtra models doBuiltin's dynamic charges beyond the static
// IntALU placeholder.
func (p *predictor) builtinExtra(f *ir.Func, in *ir.Instr) float64 {
	c := vm.Costs()
	name := in.Method
	if strings.HasPrefix(name, "config:") {
		return 0
	}
	if strings.HasPrefix(name, "reduce:") {
		// reduceBuiltin iterates the cells locally: n x PerElem.
		if len(in.Args) > 0 {
			n := p.bulkSize(f, in, in.Args[len(in.Args)-1])
			if n < 1 {
				n = 1
			}
			return float64(n) * float64(c.PerElem)
		}
		return float64(c.PerElem)
	}
	if strings.HasPrefix(name, "atomic:") {
		return float64(c.AtomicOp)
	}
	switch name {
	case "sqrt", "cbrt", "exp", "log", "sin", "cos", "floor", "ceil":
		return float64(c.MathBuiltin)
	case "writeln", "write":
		return float64(c.WriteBuiltin)
	}
	return 0
}

// spawnExtra models the tasking layer: per-task spawn charges, the join
// barrier, per-iteration body invocation overhead and zippered-iterator
// costs — everything rtCharge attributes to the runtime frames that the
// postmortem gluing trims back to this spawn site.
func (p *predictor) spawnExtra(f *ir.Func, in *ir.Instr) float64 {
	c := vm.Costs()
	sp := in.Spawn
	if sp == nil {
		return 0
	}
	switch sp.Kind {
	case ir.SpawnBegin:
		return float64(c.SpawnPerTask)
	case ir.SpawnOn:
		return float64(c.SpawnPerTask) + float64(c.CommLatency) + float64(c.Barrier)
	case ir.SpawnCobegin:
		bodies := 1 + len(sp.Extra)
		return float64(bodies)*float64(c.SpawnPerTask) + float64(c.Barrier)
	}
	// forall / coforall.
	space := p.spawnSpace(in)
	trip := p.scalar(space.TripCount(), 16)
	if trip < 1 {
		trip = 1
	}
	var numTasks float64
	if sp.Kind == ir.SpawnCoforall {
		numTasks = trip
	} else {
		numTasks = float64(p.opts.VM.NumCores)
		if numTasks > trip {
			numTasks = trip
		}
	}
	nl := p.opts.VM.NumLocales
	owner := space.Dist && nl > 1 && !p.opts.VM.NoOwnerComputes
	if owner {
		// NumCores workers per locale; all but the spawner's pay an
		// active-message launch.
		if sp.Kind != ir.SpawnCoforall {
			perLoc := float64(p.opts.VM.NumCores)
			if perLoc*float64(nl) > trip {
				numTasks = trip
			} else {
				numTasks = perLoc * float64(nl)
			}
		}
	}
	extra := numTasks * float64(c.SpawnPerTask)
	if owner && nl > 1 {
		remote := numTasks * float64(nl-1) / float64(nl)
		extra += remote * float64(c.CommLatency)
	}
	// Per-iteration body invocation (startIterCall).
	extra += trip * float64(c.IterPerCall+c.CallOverhead)
	// Zippered iterators: per-task setup and per-iteration advances.
	if nf := len(sp.Followers); nf > 0 {
		extra += numTasks * float64(nf+1) * float64(c.ZipSetup)
	}
	// The parent blocks at the join barrier (charged once to the waiter).
	extra += float64(c.Barrier)
	return extra
}

// elemWords is the flat word count of the accessed array's element type.
func (p *predictor) elemWords(in *ir.Instr) int64 {
	var base *ir.Var
	switch in.Op {
	case ir.OpIndex, ir.OpRefElem:
		base = in.A
	case ir.OpIndexStore:
		base = in.Dst
	}
	if base == nil || base.Type == nil {
		return 1
	}
	if at, ok := base.Type.(*types.ArrayType); ok && at.Elem != nil {
		if w := at.Elem.Size() / 8; w > 1 {
			return w
		}
	}
	return 1
}

// bulkSize estimates the element count of a composite value flowing
// through v at in: tuples/records from the type, arrays from the
// abstract state.
func (p *predictor) bulkSize(f *ir.Func, in *ir.Instr, v *ir.Var) int64 {
	if v == nil || v.Type == nil {
		return 1
	}
	switch t := v.Type.(type) {
	case *types.TupleType:
		return int64(t.Count)
	case *types.ArrayType:
		if r := p.res[f]; r != nil {
			if env, ok := r.At(in); ok {
				av := env.Get(v)
				if n, okc := av.TripCount().IsConst(); okc && n > 0 {
					return n
				}
				if s := p.scalar(av.TripCount(), 0); s > 1 {
					return int64(s)
				}
			}
		}
		return 1
	case *types.RecordType:
		if s := t.Size() / 8; s > 1 {
			return s
		}
	}
	return 1
}

// arraySize is the abstract element count of the domain an OpAllocArray
// allocates over.
func (p *predictor) arraySize(f *ir.Func, in *ir.Instr) float64 {
	r := p.res[f]
	if r == nil {
		return 1
	}
	env, ok := r.At(in)
	if !ok {
		return 1
	}
	n := p.scalar(env.Get(in.A).TripCount(), 1)
	if n < 1 {
		n = 1
	}
	return n
}
