// Package analyze implements a static performance-diagnostics pass
// framework over the IR and CFG. Where internal/core answers "which
// variables carry the blame for cycles already spent", this package
// front-runs the dynamic profiler: it recognizes, at compile time, the
// patterns the paper's §V case studies discover only after a blame run —
// zippered-iteration overhead, per-iteration domain remaps, Variable
// Globalization candidates, param-unrollable loops, CLOMP-style nested
// structures — plus two correctness/communication diagnostics the blame
// substrate makes cheap: a forall/coforall data-race detector built on the
// alias classes and written-vars analysis, and a communication-pattern
// classifier for accesses to Block-distributed arrays (local / halo /
// fine-grained remote).
//
// Passes emit structured findings (Diag) keyed to the same debug info the
// blame core uses, so the views package can join them with dynamic blame
// ranks ("advisor" rows: views.Advisor).
package analyze

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/types"
)

// Severity classifies a finding.
type Severity int

// Severities.
const (
	Note Severity = iota
	Warning
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "note"
}

// Diag is one structured finding.
type Diag struct {
	// Pass is the emitting pass's name.
	Pass string
	// Severity distinguishes actionable warnings from informational notes.
	Severity Severity
	// Pos locates the finding in the source.
	Pos source.Pos
	// Fn is the function the finding was made in (the outlined body for
	// parallel-loop findings).
	Fn *ir.Func
	// Var names the source variable the finding is about — the join key
	// against postmortem.Profile data-centric rows.
	Var string
	// Message describes the finding.
	Message string
	// FixHint suggests the rewrite, phrased after the paper's §V fixes.
	FixHint string
}

// Pass is a diagnostic pass. Concrete passes implement FuncPass or
// ProgramPass (or both).
type Pass interface {
	Name() string
	// Doc is a one-line description (shown by cmd/mchpl --analyze -v).
	Doc() string
}

// FuncPass runs once per non-runtime function.
type FuncPass interface {
	Pass
	RunFunc(ctx *Context, f *ir.Func) []Diag
}

// ProgramPass runs once over the whole program.
type ProgramPass interface {
	Pass
	RunProgram(ctx *Context) []Diag
}

// DefaultPasses returns the standard pass set in reporting order.
func DefaultPasses() []Pass {
	return []Pass{
		RacePass{},
		CommPass{},
		ZipPass{},
		RemapPass{},
		GlobalizePass{},
		ParamUnrollPass{},
		NestedStructPass{},
	}
}

// Context carries the shared analysis state passes draw on: the blame
// core's alias classes and written-vars analysis, natural-loop info, the
// loop-resident ("hot") function set, spawn sites of outlined bodies, and
// the array→domain distribution map.
type Context struct {
	Prog     *ir.Program
	Analysis *core.Analysis

	loops   map[*ir.Func]*loopInfo
	taints  map[*ir.Func]*taintInfo
	aliasOf map[*ir.Func]map[*ir.Var]*ir.Instr
	defsOf  map[*ir.Func]map[*ir.Var][]*ir.Instr
	hot     map[*ir.Func]bool
	spawnOf map[*ir.Func]*ir.Instr

	// arrayDom maps an array's alias-class representative to the
	// alias-class representative of the domain it was allocated over.
	arrayDom map[*ir.Var]*ir.Var
	// distDoms holds alias-class representatives of distributed domains.
	distDoms map[*ir.Var]bool

	// iprocWrites caches the interprocedural global-write summaries
	// (built on first use by interprocWrites).
	iprocWrites map[*ir.Func][]gWrite
}

// NewContext builds the shared state for one program.
func NewContext(prog *ir.Program) *Context {
	ctx := &Context{
		Prog:     prog,
		Analysis: core.AnalyzeCached(prog, core.DefaultOptions()),
		loops:    make(map[*ir.Func]*loopInfo),
		taints:   make(map[*ir.Func]*taintInfo),
		aliasOf:  make(map[*ir.Func]map[*ir.Var]*ir.Instr),
		defsOf:   make(map[*ir.Func]map[*ir.Var][]*ir.Instr),
		spawnOf:  make(map[*ir.Func]*ir.Instr),
		arrayDom: make(map[*ir.Var]*ir.Var),
		distDoms: make(map[*ir.Var]bool),
	}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpSpawn {
					continue
				}
				if in.Callee != nil {
					ctx.spawnOf[in.Callee] = in
				}
				if in.Spawn != nil {
					for _, extra := range in.Spawn.Extra {
						ctx.spawnOf[extra] = in
					}
				}
			}
		}
	}
	ctx.buildDistInfo()
	ctx.buildHot()
	return ctx
}

// SpawnSite returns the OpSpawn launching the outlined body f, or nil.
func (ctx *Context) SpawnSite(f *ir.Func) *ir.Instr { return ctx.spawnOf[f] }

// ParallelBody reports whether f is an outlined forall/coforall body (its
// instructions execute once per iteration of a parallel loop) and returns
// the spawn site.
func (ctx *Context) ParallelBody(f *ir.Func) (*ir.Instr, bool) {
	sp := ctx.spawnOf[f]
	if !f.Outlined || sp == nil || sp.Spawn == nil {
		return nil, false
	}
	if sp.Spawn.Kind != ir.SpawnForall && sp.Spawn.Kind != ir.SpawnCoforall {
		return nil, false
	}
	return sp, true
}

// Hot reports whether f's body is loop-resident: f is a parallel-loop body,
// or some call/spawn chain from inside a loop (or another hot function)
// reaches f. main and module_init are roots and never hot themselves.
func (ctx *Context) Hot(f *ir.Func) bool { return ctx.hot[f] }

// HotAt reports whether the instruction executes inside a loop: its block
// is in a natural loop of f, or f itself is loop-resident.
func (ctx *Context) HotAt(f *ir.Func, in *ir.Instr) bool {
	if ctx.Hot(f) {
		return true
	}
	if in.Block == nil {
		return false
	}
	return ctx.Loops(f).depth[in.Block.ID] > 0
}

func (ctx *Context) buildHot() {
	ctx.hot = make(map[*ir.Func]bool)
	for _, f := range ctx.Prog.Funcs {
		if _, ok := ctx.ParallelBody(f); ok {
			ctx.hot[f] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range ctx.Prog.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpCall && in.Op != ir.OpSpawn {
						continue
					}
					if !ctx.hot[f] && ctx.Loops(f).depth[b.ID] == 0 {
						continue
					}
					for _, callee := range in.Callees() {
						if callee != nil && !ctx.hot[callee] {
							ctx.hot[callee] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// buildDistInfo records which domains are distributed and which domain
// each array was allocated over, all at alias-class granularity so
// captured refs in outlined bodies resolve to the same representatives.
func (ctx *Context) buildDistInfo() {
	rep := ctx.Analysis.AliasClass
	note := func(v *ir.Var) {
		if v == nil {
			return
		}
		if d, ok := v.Type.(*types.DomainType); ok && d.Dist != "" {
			ctx.distDoms[rep(v)] = true
		}
	}
	for _, g := range ctx.Prog.Globals {
		note(g)
	}
	for _, f := range ctx.Prog.Funcs {
		for _, v := range f.AllVars() {
			note(v)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpAllocArray && in.Dst != nil && in.A != nil {
					ctx.arrayDom[rep(in.Dst)] = rep(in.A)
				}
			}
		}
	}
}

// DistArray reports whether v's alias class is an array allocated over a
// distributed domain, returning the domain representative.
func (ctx *Context) DistArray(v *ir.Var) (*ir.Var, bool) {
	if v == nil {
		return nil, false
	}
	d, ok := ctx.arrayDom[ctx.Analysis.AliasClass(v)]
	if !ok || !ctx.distDoms[d] {
		return nil, false
	}
	return d, true
}

// Loops returns (computing on demand) natural-loop info for f.
func (ctx *Context) Loops(f *ir.Func) *loopInfo {
	li, ok := ctx.loops[f]
	if !ok {
		li = buildLoopInfo(f)
		ctx.loops[f] = li
	}
	return li
}

// aliasDefs returns (computing on demand) the first alias-binding
// instruction of each ref/slice-bound variable in f: OpSlice, OpRefElem,
// OpRefField, and `ref r = x` moves.
func (ctx *Context) aliasDefs(f *ir.Func) map[*ir.Var]*ir.Instr {
	m, ok := ctx.aliasOf[f]
	if ok {
		return m
	}
	m = make(map[*ir.Var]*ir.Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.IsAliasDef() && in.Dst != nil {
				if _, seen := m[in.Dst]; !seen {
					m[in.Dst] = in
				}
			}
		}
	}
	ctx.aliasOf[f] = m
	return m
}

// defs returns (computing on demand) the direct-write definitions of each
// variable in f (alias bindings and store-throughs excluded).
func (ctx *Context) defs(f *ir.Func) map[*ir.Var][]*ir.Instr {
	m, ok := ctx.defsOf[f]
	if ok {
		return m
	}
	m = make(map[*ir.Var][]*ir.Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.IsStoreThrough() || in.IsAliasDef() {
				continue
			}
			if v := in.Def(); v != nil {
				m[v] = append(m[v], in)
			}
		}
	}
	ctx.defsOf[f] = m
	return m
}

// constInt resolves v to a compile-time integer constant by chasing its
// (unique) OpConst/OpMove definition chain.
func (ctx *Context) constInt(f *ir.Func, v *ir.Var) (int64, bool) {
	defs := ctx.defs(f)
	for hops := 0; hops < 8; hops++ {
		ds := defs[v]
		if len(ds) != 1 {
			return 0, false
		}
		in := ds[0]
		switch in.Op {
		case ir.OpConst:
			if in.Lit != nil && in.Lit.T.Kind() == types.Int {
				return in.Lit.I, true
			}
			return 0, false
		case ir.OpMove:
			v = in.A
		default:
			return 0, false
		}
	}
	return 0, false
}

// rootBase chases v through f's alias-binding chain (element refs, field
// refs, slices, ref moves) to the underlying storage variable.
func (ctx *Context) rootBase(f *ir.Func, v *ir.Var) *ir.Var {
	alias := ctx.aliasDefs(f)
	defs := ctx.defs(f)
	for hops := 0; hops < 16 && v != nil; hops++ {
		if in, ok := alias[v]; ok && in.A != nil && in.A != v {
			v = in.A
			continue
		}
		// Class handles propagate through copies and element/field reads
		// (reference semantics: the copy names the same instance).
		if v.Type != nil && v.Type.Kind() == types.Class {
			if ds := defs[v]; len(ds) == 1 && ds[0].A != nil && ds[0].A != v {
				switch ds[0].Op {
				case ir.OpMove, ir.OpIndex, ir.OpField, ir.OpTupleGet:
					v = ds[0].A
					continue
				}
			}
		}
		break
	}
	return v
}

// DisplayName returns the user-facing name for v: v itself when it is a
// source variable, else its alias-class representative when that is (e.g.
// the temp holding `Pos[binSpace]` displays as "Pos").
func (ctx *Context) DisplayName(v *ir.Var) string {
	if v == nil {
		return ""
	}
	if v.Display() {
		return v.Name
	}
	if r := ctx.Analysis.AliasClass(v); r.Display() {
		return r.Name
	}
	return ""
}

// Report is the result of running passes over a program.
type Report struct {
	Prog  *ir.Program
	Diags []Diag
}

// Run builds a Context and runs the passes. With no passes given it runs
// DefaultPasses.
func Run(prog *ir.Program, passes ...Pass) *Report {
	if len(passes) == 0 {
		passes = DefaultPasses()
	}
	ctx := NewContext(prog)
	r := &Report{Prog: prog}
	for _, p := range passes {
		if fp, ok := p.(FuncPass); ok {
			for _, f := range prog.Funcs {
				if f.IsRuntime {
					continue
				}
				r.Diags = append(r.Diags, fp.RunFunc(ctx, f)...)
			}
		}
		if pp, ok := p.(ProgramPass); ok {
			r.Diags = append(r.Diags, pp.RunProgram(ctx)...)
		}
	}
	r.sort()
	r.dedupe()
	return r
}

// dedupe collapses identical findings: compile-time unrolling (param
// loops) clones blocks, so one source loop can yield several copies of
// the same diagnostic.
func (r *Report) dedupe() {
	out := r.Diags[:0]
	for i, d := range r.Diags {
		if i > 0 {
			p := r.Diags[i-1]
			if p.Pass == d.Pass && p.Pos == d.Pos && p.Var == d.Var && p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	r.Diags = out
}

func (r *Report) sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pos.FileID != b.Pos.FileID {
			return a.Pos.FileID < b.Pos.FileID
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}

// ByPass returns the findings emitted by the named pass.
func (r *Report) ByPass(name string) []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Pass == name {
			out = append(out, d)
		}
	}
	return out
}

// Text renders the report for terminals and golden files: a summary line,
// then one finding per line (sorted by position), fix hints indented.
func (r *Report) Text() string {
	var b strings.Builder
	warnings, notes := 0, 0
	for _, d := range r.Diags {
		if d.Severity == Warning {
			warnings++
		} else {
			notes++
		}
	}
	if len(r.Diags) == 0 {
		b.WriteString("static diagnostics: no findings\n")
		return b.String()
	}
	fmt.Fprintf(&b, "static diagnostics: %d findings (%d warnings, %d notes)\n",
		len(r.Diags), warnings, notes)
	for _, d := range r.Diags {
		fmt.Fprintf(&b, "%s: %s [%s] %s\n",
			r.Prog.FileSet.Position(d.Pos), d.Severity, d.Pass, d.Message)
		if d.FixHint != "" {
			fmt.Fprintf(&b, "    fix: %s\n", d.FixHint)
		}
	}
	return b.String()
}
