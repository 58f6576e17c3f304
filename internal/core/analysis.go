// Package core implements the paper's primary contribution: variable
// blame for PGAS programs. It computes, statically and per function,
//
//	BlameSet(v, W) = ⋃_{w ∈ W} BackwardsSlice(w)
//
// where W is the set of instructions writing v, v's aliases (array
// slices, element refs) and v's fields (§III). Explicit transfer follows
// def-use chains; implicit transfer follows control dependence computed
// from the post-dominator tree (§IV.A). Exit variables (ref formals,
// return values; globals are blamed directly) form each procedure's
// transfer function for interprocedural bubbling (§IV.A "Transfer
// Function").
//
// Sample attribution (AttributeSample) is memoized per instruction: the
// blame a sample draws within one function depends only on the Analysis
// and the instruction, so each instruction's blamed variables, access
// paths and exit-variable flag are computed once and shared. The
// returned slices are read-only, and a built Analysis stays safe to share
// across goroutines.
//
// Note on the paper's Fig. 1/Table I worked example: we implement the
// published formula, under which variable `a` (written at line 19 as
// a=b+1) also inherits line 17 (the write to b) through the backward
// slice; the paper's Table I omits 17 for `a` while including it for `c`.
// EXPERIMENTS.md records this one-line deviation.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/types"
)

// Options configure the analysis; the default (all true, instruction
// granularity) is the paper's configuration. The flags are the ablation
// knobs listed in DESIGN.md §4.
type Options struct {
	// ImplicitTransfer enables control-dependence blame (loop indices,
	// branch conditions). Paper default: on.
	ImplicitTransfer bool
	// Interprocedural enables transfer functions (exit-variable
	// bubbling). Paper default: on.
	Interprocedural bool
	// LineGranularity attributes at source-line instead of instruction
	// granularity (the paper argues instruction granularity is needed
	// when multiple statements share a line).
	LineGranularity bool
	// TrackPaths enables field/element access-path blame
	// (->partArray[i].zoneArray[j].value rows of Table IV).
	TrackPaths bool
}

// DefaultOptions is the paper's configuration.
func DefaultOptions() Options {
	return Options{ImplicitTransfer: true, Interprocedural: true, TrackPaths: true}
}

// PathBlame is the blame set of one field/element access path.
type PathBlame struct {
	Root *ir.Var
	Path string
	set  *bitset
	line map[int32]bool
}

// FuncAnalysis holds the per-function static blame information.
type FuncAnalysis struct {
	Fn     *ir.Func
	instrs []*ir.Instr
	index  map[*ir.Instr]int

	// blame maps alias-class representative vars to instruction sets.
	blame map[*ir.Var]*bitset
	// blameLines is the line-granularity projection.
	blameLines map[*ir.Var]map[int32]bool
	// Exits are the function's exit variables (ref formals + return).
	Exits []*ir.Var
	// Paths maps access paths to their blame.
	Paths map[string]*PathBlame

	// vars lists all variables that appear in the function (including
	// globals it touches).
	vars []*ir.Var

	// memo holds each instruction's level-local attribution (indexed
	// like instrs), filled lazily by attribution.
	memo []atomic.Pointer[instrBlame]
}

// Analysis is the whole-program static blame result (paper step 1).
type Analysis struct {
	Prog  *ir.Program
	Opts  Options
	Funcs map[*ir.Func]*FuncAnalysis

	aliasParent map[*ir.Var]*ir.Var
	// writes is the per-function written-variables analysis.
	writes *writeInfo
	// globalMembers lists the displayable global variables of each alias
	// class (keyed by representative): an alias like RealPos is blamed
	// wherever Pos's class is blamed, since their W sets coincide (§III
	// "the aliases of v").
	globalMembers map[*ir.Var][]*ir.Var
}

// Analyze runs static blame analysis over prog.
func Analyze(prog *ir.Program, opts Options) *Analysis {
	a := &Analysis{
		Prog:        prog,
		Opts:        opts,
		Funcs:       make(map[*ir.Func]*FuncAnalysis),
		aliasParent: make(map[*ir.Var]*ir.Var),
	}
	// Program-wide alias classes: slices, element refs, field refs and
	// ref-bindings union their operands (the paper's "aliases of v"), and
	// ref formals union with their actuals (a ref formal aliases the
	// caller's variable).
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.IsAliasDef() && in.Dst != nil && in.A != nil {
					a.union(in.Dst, in.A)
				}
				// Class handle copies alias the same heap instance
				// (`var p = partArray[pi];` — writes through p are
				// writes to partArray's region).
				if isClassVar(in.Dst) && in.A != nil {
					switch in.Op {
					case ir.OpMove, ir.OpIndex, ir.OpField, ir.OpTupleGet:
						a.union(in.Dst, in.A)
					}
				}
				if in.Op == ir.OpCall || in.Op == ir.OpSpawn {
					for _, pr := range callRefArgs(in) {
						if pr.param.IsRef && pr.arg != nil {
							a.union(pr.param, pr.arg)
						}
					}
				}
			}
		}
	}
	a.writes = newWriteInfo(prog)
	a.globalMembers = make(map[*ir.Var][]*ir.Var)
	for _, g := range prog.Globals {
		if g.Sym != nil && !g.IsTemp {
			rep := a.find(g)
			a.globalMembers[rep] = append(a.globalMembers[rep], g)
		}
	}
	for _, f := range prog.Funcs {
		if f.IsRuntime {
			continue
		}
		a.Funcs[f] = a.analyzeFunc(f)
	}
	// Fully path-compress the union-find so post-build find() calls are
	// pure reads: the Analysis can then be shared across goroutines
	// (AnalyzeCached) without racing on lazy compression.
	for v := range a.aliasParent {
		a.find(v)
	}
	return a
}

// ------------------------------------------------------------ alias sets

func (a *Analysis) find(v *ir.Var) *ir.Var {
	p, ok := a.aliasParent[v]
	if !ok || p == v {
		return v
	}
	r := a.find(p)
	// Path-compress only when the stored parent is stale. After the full
	// compression at the end of Analyze this branch never fires, keeping
	// post-build lookups write-free (safe for concurrent readers).
	if r != p {
		a.aliasParent[v] = r
	}
	return r
}

func (a *Analysis) union(x, y *ir.Var) {
	rx, ry := a.find(x), a.find(y)
	if rx == ry {
		return
	}
	// Prefer a named, non-temp representative so classes read well; among
	// named ones prefer globals (RealPos unions into Pos).
	better := func(p, q *ir.Var) bool {
		if p.IsTemp != q.IsTemp {
			return !p.IsTemp
		}
		if p.IsGlobal != q.IsGlobal {
			return p.IsGlobal
		}
		return false
	}
	if better(ry, rx) {
		rx, ry = ry, rx
	}
	a.aliasParent[ry] = rx
}

// AliasClass returns the representative of v's alias class.
func (a *Analysis) AliasClass(v *ir.Var) *ir.Var { return a.find(v) }

// CalleeWritesParam reports whether fn writes the given formal — directly
// or transitively through further calls. It exposes the written-vars
// analysis call-site blame uses, so static diagnostics (internal/analyze)
// can tell a callee that mutates a ref argument from one that only reads
// it.
func (a *Analysis) CalleeWritesParam(fn *ir.Func, p *ir.Var) bool {
	return a.writes.WritesParam(fn, p)
}

// ------------------------------------------------------- per-function

func (a *Analysis) analyzeFunc(f *ir.Func) *FuncAnalysis {
	fa := &FuncAnalysis{
		Fn:         f,
		index:      make(map[*ir.Instr]int),
		blame:      make(map[*ir.Var]*bitset),
		blameLines: make(map[*ir.Var]map[int32]bool),
		Paths:      make(map[string]*PathBlame),
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fa.index[in] = len(fa.instrs)
			fa.instrs = append(fa.instrs, in)
		}
	}
	n := len(fa.instrs)
	fa.memo = make([]atomic.Pointer[instrBlame], n)

	// Collect variables and defs (per alias class).
	seen := make(map[*ir.Var]bool)
	defs := make(map[*ir.Var][]int) // class rep → instr indices
	addVar := func(v *ir.Var) {
		if v != nil && !seen[v] {
			seen[v] = true
			fa.vars = append(fa.vars, v)
		}
	}
	addDef := func(v *ir.Var, idx int) {
		if v == nil {
			return
		}
		r := a.find(v)
		defs[r] = append(defs[r], idx)
	}
	// shallowDefs are "descriptor writes": the paper's footnote on the
	// MiniMD Count/binSpace rows observes that domain remapping writes
	// these variables "not at the source code level, but at the llvm
	// instruction level". Slice construction touches its domain operand's
	// runtime descriptor; we record it as a write whose slice is just the
	// instruction itself (no operand closure).
	shallowDefs := make(map[*ir.Var][]int)
	// classHasGlobal: module-level arrays travel through the runtime's
	// wide descriptors, which every binding/bundling touches — the
	// paper's footnote that such variables are "written, not at the
	// source code level, but at the llvm instruction level".
	classHasGlobal := func(v *ir.Var) bool {
		return len(a.globalMembers[a.find(v)]) > 0
	}
	for idx, in := range fa.instrs {
		addVar(in.Dst)
		addVar(in.A)
		addVar(in.B)
		for _, q := range in.Args {
			addVar(q)
		}
		switch {
		case in.Op == ir.OpBuiltin && isAtomicWrite(in.Method):
			// Atomic write/add/sub/fetchAdd store through the receiver.
			if in.A != nil {
				addDef(in.A, idx)
			}
		case in.IsAliasDef() || in.Op == ir.OpZipSetup || in.Op == ir.OpZipAdvance:
			// Ref bindings are descriptor touches: writes only for
			// global-classed variables.
			if in.Dst != nil && classHasGlobal(in.Dst) {
				addDef(in.Dst, idx)
			}
		case in.Op == ir.OpCall || in.Op == ir.OpSpawn:
			if in.Dst != nil {
				addDef(in.Dst, idx)
			}
			// A call writes the ref arguments its callee actually
			// mutates, plus the wide descriptors of global-classed
			// *arrays* it bundles (scalars and domains pass by value;
			// domains get descriptor blame at slice sites instead).
			for _, pr := range callRefArgs(in) {
				if pr.arg == nil {
					continue
				}
				isGlobalArray := classHasGlobal(pr.arg) && pr.arg.Type != nil && pr.arg.Type.Kind() == types.Array
				if (pr.param.IsRef && a.writes.WritesParam(in.Callee, pr.param)) || isGlobalArray {
					addDef(pr.arg, idx)
				}
			}
		default:
			if d := in.Def(); d != nil {
				addDef(d, idx)
			}
		}
		if in.Op == ir.OpSlice && in.B != nil {
			r := a.find(in.B)
			shallowDefs[r] = append(shallowDefs[r], idx)
		}
		if in.Spawn != nil && in.Spawn.Iter != nil {
			r := a.find(in.Spawn.Iter)
			shallowDefs[r] = append(shallowDefs[r], idx)
		}
	}

	// Control dependences (implicit transfer).
	var cdeps map[int][]*ir.Instr
	if a.Opts.ImplicitTransfer {
		cdeps = cfg.ControlDeps(f)
	}

	// Exit variables: ref formals and the return slot.
	for _, p := range f.Params {
		if p.IsRef {
			fa.Exits = append(fa.Exits, p)
		}
	}
	if f.RetVar != nil {
		fa.Exits = append(fa.Exits, f.RetVar)
	}

	// Fixpoint over blame sets: BlameSet(v) = ⋃ defs' backward slices.
	getSet := func(v *ir.Var) *bitset {
		r := a.find(v)
		s, ok := fa.blame[r]
		if !ok {
			s = newBitset(n)
			fa.blame[r] = s
		}
		return s
	}
	// sliceInto accumulates the backward slice of one def instruction.
	sliceInto := func(dst *bitset, idx int) bool {
		in := fa.instrs[idx]
		changed := false
		if !dst.has(idx) {
			dst.set(idx)
			changed = true
		}
		for _, u := range in.Uses() {
			if dst.union(getSet(u)) {
				changed = true
			}
		}
		if cdeps != nil && in.Block != nil {
			for _, br := range cdeps[in.Block.ID] {
				bi, ok := fa.index[br]
				if !ok {
					continue
				}
				if !dst.has(bi) {
					dst.set(bi)
					changed = true
				}
				for _, cu := range br.Uses() {
					if dst.union(getSet(cu)) {
						changed = true
					}
				}
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		for rep, dlist := range defs {
			set := getSet(rep)
			for _, idx := range dlist {
				if sliceInto(set, idx) {
					changed = true
				}
			}
		}
		for rep, dlist := range shallowDefs {
			set := getSet(rep)
			for _, idx := range dlist {
				if !set.has(idx) {
					set.set(idx)
					changed = true
				}
			}
		}
	}

	// Line-granularity projection.
	for rep, set := range fa.blame {
		lines := make(map[int32]bool)
		set.each(func(i int) {
			if p := fa.instrs[i].Pos; p.IsValid() {
				lines[p.Line] = true
			}
		})
		fa.blameLines[rep] = lines
	}

	// Access-path blame (field/element rows of Table IV).
	if a.Opts.TrackPaths {
		a.buildPaths(fa, cdeps)
	}
	return fa
}

// buildPaths assigns blame to static access paths rooted at named
// variables: every store-through instruction's backward slice blames the
// path it writes.
func (a *Analysis) buildPaths(fa *FuncAnalysis, cdeps map[int][]*ir.Instr) {
	n := len(fa.instrs)
	pathMemo := make(map[*ir.Var]string)
	rootMemo := make(map[*ir.Var]*ir.Var)
	// aliasDefOf finds the (first) alias-def of a ref temp; class-handle
	// vars also trace through their initializing copy (`var p =
	// partArray[pi]` names the same instance).
	aliasDefOf := func(v *ir.Var) *ir.Instr {
		for _, in := range fa.instrs {
			if in.Dst != v {
				continue
			}
			if in.IsAliasDef() {
				return in
			}
			if isClassVar(v) {
				switch in.Op {
				case ir.OpIndex, ir.OpMove, ir.OpField:
					return in
				}
			}
		}
		return nil
	}
	var pathOf func(v *ir.Var) (string, *ir.Var)
	pathOf = func(v *ir.Var) (string, *ir.Var) {
		if p, ok := pathMemo[v]; ok {
			return p, rootMemo[v]
		}
		pathMemo[v] = "" // cycle guard
		var path string
		var root *ir.Var
		named := v.Sym != nil && !v.IsTemp
		if named && !isClassVar(v) {
			path, root = v.Name, v
		} else if def := aliasDefOf(v); def != nil && def.A != nil {
			base, r := pathOf(def.A)
			root = r
			switch def.Op {
			case ir.OpRefElem, ir.OpIndex:
				path = base + "[" + indexNames(def.Args) + "]"
			case ir.OpRefField, ir.OpField:
				path = base + "." + fieldName(def)
			case ir.OpSlice, ir.OpMove:
				path = base
			}
		}
		if path == "" && named {
			path, root = v.Name, v
		}
		pathMemo[v] = path
		rootMemo[v] = root
		return path, root
	}

	addPathBlame := func(path string, root *ir.Var, idx int) {
		pb, ok := fa.Paths[path]
		if !ok {
			pb = &PathBlame{Root: root, Path: path, set: newBitset(n), line: make(map[int32]bool)}
			fa.Paths[path] = pb
		}
		// Slice of this store: the stored value and the indices — not the
		// base chain, whose class-level set covers every write to the
		// whole structure (that set belongs to the root row).
		in := fa.instrs[idx]
		pb.set.set(idx)
		uses := []*ir.Var{in.A, in.B}
		uses = append(uses, in.Args...)
		for _, u := range uses {
			if u == nil {
				continue
			}
			if s, ok := fa.blame[a.find(u)]; ok {
				pb.set.union(s)
			}
		}
		if cdeps != nil && in.Block != nil {
			for _, br := range cdeps[in.Block.ID] {
				if bi, ok := fa.index[br]; ok {
					pb.set.set(bi)
				}
				for _, cu := range br.Uses() {
					if s, ok := fa.blame[a.find(cu)]; ok {
						pb.set.union(s)
					}
				}
			}
		}
	}

	for idx, in := range fa.instrs {
		if !in.IsStoreThrough() || in.Dst == nil {
			continue
		}
		base, root := pathOf(in.Dst)
		if base == "" || root == nil || root.Sym == nil {
			continue
		}
		var p string
		switch in.Op {
		case ir.OpIndexStore:
			p = base + "[" + indexNames(in.Args) + "]"
		case ir.OpFieldStore:
			p = base + "." + fieldName(in)
		case ir.OpTupleSet:
			p = base
		}
		if p == "" || p == root.Name {
			continue
		}
		addPathBlame(p, root, idx)
	}
	// Ancestor prefixes: a write to partArray[i].zoneArray[j].value is
	// also a write to partArray[i].zoneArray[j] and partArray[i]
	// (the paper's hierarchical rows, "all fields of v").
	prefixes := make(map[string]*PathBlame)
	for path, pb := range fa.Paths {
		for p := parentPath(path); p != "" && p != pb.Root.Name; p = parentPath(p) {
			anc, ok := fa.Paths[p]
			if !ok {
				anc, ok = prefixes[p]
			}
			if !ok {
				anc = &PathBlame{Root: pb.Root, Path: p, set: newBitset(n), line: make(map[int32]bool)}
				prefixes[p] = anc
			}
			anc.set.union(pb.set)
		}
	}
	for p, pb := range prefixes {
		fa.Paths[p] = pb
	}
	for _, pb := range fa.Paths {
		pb.set.each(func(i int) {
			if p := fa.instrs[i].Pos; p.IsValid() {
				pb.line[p.Line] = true
			}
		})
	}
}

// parentPath strips the last accessor ("a[i].b" → "a[i]" → "a").
func parentPath(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		switch p[i] {
		case '.':
			return p[:i]
		case '[':
			return p[:i]
		}
	}
	return ""
}

// indexNames renders subscript names from the index operand variables
// (actual loop-variable names when available, generic i/j/k otherwise).
func indexNames(args []*ir.Var) string {
	generic := []string{"i", "j", "k"}
	out := ""
	for d, a := range args {
		if d > 0 {
			out += ","
		}
		if a != nil && !a.IsTemp && a.Sym != nil {
			out += a.Name
		} else if d < len(generic) {
			out += generic[d]
		} else {
			out += "i"
		}
	}
	if out == "" {
		return "i"
	}
	return out
}

// fieldName resolves the field name of a field access instruction from
// the base operand's record type.
func fieldName(in *ir.Instr) string {
	var base *ir.Var
	if in.Op == ir.OpFieldStore {
		base = in.Dst
	} else {
		base = in.A
	}
	if base != nil {
		if rt, ok := baseRecord(base.Type); ok && in.FieldIx >= 0 && in.FieldIx < len(rt.Fields) {
			return rt.Fields[in.FieldIx].Name
		}
	}
	if in.FieldIx >= 0 {
		return fmt.Sprintf("f%d", in.FieldIx)
	}
	return "value"
}

func baseRecord(t types.Type) (*types.RecordType, bool) {
	rt, ok := t.(*types.RecordType)
	return rt, ok
}

// isAtomicWrite reports whether an OpBuiltin method mutates its receiver.
func isAtomicWrite(method string) bool {
	switch method {
	case "atomic:write", "atomic:add", "atomic:sub", "atomic:fetchAdd":
		return true
	}
	return false
}

// isClassVar reports whether v holds a class handle.
func isClassVar(v *ir.Var) bool {
	return v != nil && v.Type != nil && v.Type.Kind() == types.Class
}

// ------------------------------------------------------------- queries

// BlameSetLines returns the source lines in v's blame set within f —
// the "Blame Lines" of the paper's Table I.
func (a *Analysis) BlameSetLines(f *ir.Func, v *ir.Var) []int {
	fa := a.Funcs[f]
	if fa == nil {
		return nil
	}
	lines, ok := fa.blameLines[a.find(v)]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(lines))
	for l := range lines {
		out = append(out, int(l))
	}
	sort.Ints(out)
	return out
}
