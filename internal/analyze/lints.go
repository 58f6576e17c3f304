package analyze

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/types"
)

// The four lints below encode the optimization patterns the paper's §V
// case studies apply after reading the blame profile — recognized here
// statically, before any run. Each lint is validated as an oracle against
// internal/benchprog: the original variant triggers it, the paper's
// optimized rewrite silences it.

// ---------------------------------------------------------------- zippered

// ZipPass flags zippered iteration: parallel zip spawns pay per-task
// iterator setup plus a per-iteration advance for every follower, and
// serial zips inside loops pay the setup every entry (MiniMD's §V.B fix
// replaces both with direct indexed loops: 2.3x).
type ZipPass struct{}

// Name is the pass name its findings carry.
func (ZipPass) Name() string { return "zip-overhead" }

// RunFunc implements funcPass.
func (ZipPass) RunFunc(ctx *Context, f *ir.Func) []Diag {
	var out []Diag
	for _, b := range f.Blocks {
		// All OpZipSetup markers in one block belong to one serial zip
		// loop's entry (the loop's own blocks come after the setups).
		var setups []*ir.Instr
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpZipSetup:
				setups = append(setups, in)
			case in.Op == ir.OpSpawn && in.Spawn != nil && len(in.Spawn.Followers) > 0 &&
				(in.Spawn.Kind == ir.SpawnForall || in.Spawn.Kind == ir.SpawnCoforall):
				sev := Note
				if ctx.HotAt(f, in) {
					sev = Warning
				}
				out = append(out, Diag{
					Pass: ZipPass{}.Name(), Severity: sev, Pos: in.Pos, Fn: f,
					Var: firstArrayName(ctx, []*ir.Instr{in}),
					Message: fmt.Sprintf("zippered %s over %d iterands: every task constructs %d follower iterators "+
						"and advances each one per iteration", in.Spawn.Kind, 1+len(in.Spawn.Followers), len(in.Spawn.Followers)),
					FixHint: "iterate the leader space directly and index the follower arrays with the loop variable",
				})
			}
		}
		if len(setups) > 0 && ctx.HotAt(f, setups[0]) {
			out = append(out, Diag{
				Pass: ZipPass{}.Name(), Severity: Warning, Pos: setups[0].Pos, Fn: f,
				Var: firstArrayName(ctx, setups),
				Message: fmt.Sprintf("zippered serial iteration over %d iterands inside a loop: "+
					"iterator setup is re-paid on every loop entry and every follower advances per element", len(setups)),
				FixHint: "iterate one space directly and index the other arrays with the loop variable",
			})
		}
	}
	return out
}

// firstArrayName picks the join-key variable for a zip finding: the first
// zip operand whose alias class is a user-visible array.
func firstArrayName(ctx *Context, ins []*ir.Instr) string {
	var cands []*ir.Var
	for _, in := range ins {
		if in.Spawn != nil {
			cands = append(cands, in.Spawn.Iter)
			cands = append(cands, in.Spawn.Followers...)
		}
		cands = append(cands, in.A, in.Dst)
	}
	for _, v := range cands {
		if v == nil || v.Type == nil || v.Type.Kind() != types.Array {
			continue
		}
		if n := ctx.DisplayName(v); n != "" {
			return n
		}
	}
	return ""
}

// ------------------------------------------------------------ domain remap

// RemapPass flags array views (slices) created inside loops or
// loop-resident functions: `ref npos = Pos[DistSpace]` in MiniMD's inner
// loop rebuilds the view descriptor per iteration — the paper's fix hoists
// it or indexes directly.
type RemapPass struct{}

// Name is the pass name its findings carry.
func (RemapPass) Name() string { return "domain-remap" }

// RunFunc implements funcPass.
func (RemapPass) RunFunc(ctx *Context, f *ir.Func) []Diag {
	var out []Diag
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpSlice || !ctx.HotAt(f, in) {
				continue
			}
			base := ctx.DisplayName(in.A)
			if base == "" {
				base = in.A.Name
			}
			out = append(out, Diag{
				Pass: RemapPass{}.Name(), Severity: Warning, Pos: in.Pos, Fn: f, Var: base,
				Message: fmt.Sprintf("domain remap of '%s' inside a loop: the array view over '%s' is rebuilt on every execution",
					base, domSliceName(ctx, in)),
				FixHint: fmt.Sprintf("hoist the view out of the loop, or index '%s' directly with the loop variable", base),
			})
		}
	}
	return out
}

func domSliceName(ctx *Context, in *ir.Instr) string {
	if in.B == nil {
		return "its domain"
	}
	if n := ctx.DisplayName(in.B); n != "" {
		return n
	}
	return "its domain"
}

// --------------------------------------------------- variable globalization

// GlobalizePass flags arrays allocated in the locals of loop-resident
// procedures — LULESH's CalcVolumeForceForElems re-allocates determ/sigxx
// on every call; the paper's Variable Globalization moves them to module
// scope (§V.A).
type GlobalizePass struct{}

// Name is the pass name its findings carry.
func (GlobalizePass) Name() string { return "var-globalization" }

// RunFunc implements funcPass.
func (GlobalizePass) RunFunc(ctx *Context, f *ir.Func) []Diag {
	if !ctx.Hot(f) || f.Outlined {
		return nil
	}
	var out []Diag
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAllocArray || in.Dst == nil {
				continue
			}
			v := in.Dst
			if v.IsGlobal || !v.Display() {
				continue
			}
			out = append(out, Diag{
				Pass: GlobalizePass{}.Name(), Severity: Warning, Pos: in.Pos, Fn: f, Var: v.Name,
				Message: fmt.Sprintf("local array '%s' is allocated on every call of loop-resident proc '%s'",
					v.Name, f.Name),
				FixHint: fmt.Sprintf("move '%s' to module scope so it is allocated once (Variable Globalization)", v.Name),
			})
		}
	}
	return out
}

// ------------------------------------------------------------ param unroll

// ParamUnrollPass flags small constant-trip serial loops in loop-resident
// code: declaring the index `param` unrolls them at compile time, the
// paper's Table VII fix for LULESH's 1..4 / 1..8 element loops.
type ParamUnrollPass struct{}

// Name is the pass name its findings carry.
func (ParamUnrollPass) Name() string { return "param-unroll" }

// maxUnrollTrip bounds how large a constant-trip loop the lint still
// considers unrollable (the paper unrolls trips of 4 and 8).
const maxUnrollTrip = 8

// RunFunc implements funcPass.
func (ParamUnrollPass) RunFunc(ctx *Context, f *ir.Func) []Diag {
	var out []Diag
	li := ctx.Loops(f)
	for _, l := range li.Loops {
		trip, iv, ok := ctx.constTrip(f, l)
		if !ok || trip < 2 || trip > maxUnrollTrip || len(l.Head.Instrs) == 0 {
			continue
		}
		head := l.Head.Instrs[0]
		if !ctx.HotAt(f, head) {
			continue
		}
		name := ""
		if iv != nil && iv.Display() {
			name = iv.Name
		}
		out = append(out, Diag{
			Pass: ParamUnrollPass{}.Name(), Severity: Warning, Pos: head.Pos, Fn: f, Var: name,
			Message: fmt.Sprintf("loop has a compile-time-constant trip count of %d inside hot code: "+
				"loop control overhead (compare/branch/increment) is paid %d times per entry", trip, trip),
			FixHint: "declare the loop index `param` (for param i in ...) so the compiler fully unrolls the body",
		})
	}
	return out
}

// --------------------------------------------------------- nested structure

// NestedStructPass flags element accesses that reach an array through a
// record/class field inside hot code — CLOMP's
// `partArray[i].zoneArray[z].value` chains; the paper's fix flattens the
// zone values into one top-level 2-D array (§V.C: 2.1x).
type NestedStructPass struct{}

// Name is the pass name its findings carry.
func (NestedStructPass) Name() string { return "nested-structure" }

// RunFunc implements funcPass.
func (NestedStructPass) RunFunc(ctx *Context, f *ir.Func) []Diag {
	var out []Diag
	seen := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			var base *ir.Var
			switch in.Op {
			case ir.OpIndex, ir.OpRefElem:
				base = in.A
			case ir.OpIndexStore:
				base = in.Dst
			default:
				continue
			}
			if !ctx.HotAt(f, in) {
				continue
			}
			fieldHop, root := ctx.fieldInChain(f, base)
			if fieldHop == nil || seen[in] {
				continue
			}
			seen[in] = true
			rootName := ctx.DisplayName(root)
			if rootName == "" {
				rootName = root.Name
			}
			out = append(out, Diag{
				Pass: NestedStructPass{}.Name(), Severity: Warning, Pos: in.Pos, Fn: f, Var: rootName,
				Message: fmt.Sprintf("hot element access reaches an array through field '%s' of a record/class "+
					"(nested structure rooted at '%s'): every access re-chases the field indirection", fieldHop.name, rootName),
				FixHint: "flatten the per-object arrays into one top-level multi-dimensional array indexed by (object, element)",
			})
		}
	}
	return out
}

type fieldHop struct {
	name string
}

// fieldInChain walks v's binding chain; when some link is a field
// projection it returns that hop's field name and the chain's root object.
func (ctx *Context) fieldInChain(f *ir.Func, v *ir.Var) (*fieldHop, *ir.Var) {
	alias := ctx.aliasDefs(f)
	defs := ctx.defs(f)
	var hop *fieldHop
	for hops := 0; hops < 16 && v != nil; hops++ {
		if in, ok := alias[v]; ok && in.A != nil && in.A != v {
			if in.Op == ir.OpRefField {
				hop = &fieldHop{name: fieldNameOf(in)}
			}
			v = in.A
			continue
		}
		if v.Type != nil && (v.Type.Kind() == types.Class || v.Type.Kind() == types.Array) {
			if ds := defs[v]; len(ds) == 1 && ds[0].A != nil && ds[0].A != v {
				switch ds[0].Op {
				case ir.OpField:
					hop = &fieldHop{name: fieldNameOf(ds[0])}
					v = ds[0].A
					continue
				case ir.OpMove, ir.OpIndex, ir.OpTupleGet:
					v = ds[0].A
					continue
				}
			}
		}
		break
	}
	if hop == nil {
		return nil, v
	}
	return hop, ctx.rootBase(f, v)
}

// fieldNameOf resolves the field name of an OpField/OpRefField from the
// base's record type.
func fieldNameOf(in *ir.Instr) string {
	if in.A != nil && in.A.Type != nil {
		t := in.A.Type
		if c, ok := t.(*types.RecordType); ok && in.FieldIx >= 0 && in.FieldIx < len(c.Fields) {
			return c.Fields[in.FieldIx].Name
		}
	}
	return fmt.Sprintf("#%d", in.FieldIx)
}
