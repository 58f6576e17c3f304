// Package gobe is the Go compiled backend: it lowers internal/ir to
// generated Go source (threaded code over the VM's backend seam),
// compiles it with `go build` into a per-program runner binary, and
// executes it out of process with the exact cycle charging, comm
// runtime calls, fault injection points and cancellation quantum the
// interpreter uses. Runners are cached under a key over the program and
// a digest of the repository sources they link (see Build), so an edit
// to the runtime selects a fresh runner without any manual versioning.
//
// Equivalence strategy: the generated code replaces only instruction
// dispatch. A small set of provably-identical operations (scalar
// const/move/arith/compare, jumps, branches, cost-only markers, rank-1
// local array element access) is inlined behind runtime guards that
// check every precondition *before* any effect; anything else — and any
// guard miss — falls back to the interpreter for exactly one
// instruction via vm.StepOne. Both backends therefore retire the same
// instruction sequence with the same charge/listener ordering, which is
// what the differential harness pins bit-for-bit.
package gobe

import (
	"fmt"
	"math"
	"strings"

	"repro/gobert"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/token"
	"repro/internal/types"
)

// maxInlineInstrs caps how large an IR function gets inline codegen.
// Every instruction expands to ~40-50 lines of guarded Go plus a
// dispatch-switch case, and the Go compiler's SSA passes degrade
// superlinearly on functions with thousands of basic blocks: a ~2000
// instruction function produced a ~100k-line Go function that took
// minutes and ~10 GB to compile. Functions over the cap are simply not
// registered in the compiled table — gobert.MakeSlice interprets any
// activation without a compiled fn one guarded step at a time, so the
// behavior is identical by construction, just not accelerated.
const maxInlineInstrs = 1024

// Generate emits the runner's main.go for a compiled program.
func Generate(prog *ir.Program, name, source string, opts compile.Options) string {
	var b strings.Builder
	b.WriteString("// Code generated by repro/internal/gobe. DO NOT EDIT.\n")
	b.WriteString("package main\n\n")
	b.WriteString("import (\n\t\"math\"\n\n\t\"repro/gobert\"\n)\n\n")
	b.WriteString("var _ = math.Pow\n\n")
	fmt.Fprintf(&b, "const progName = %q\n\n", name)
	fmt.Fprintf(&b, "const progSource = %q\n\n", source)
	fmt.Fprintf(&b, "const progFingerprint = %q\n\n", gobert.Fingerprint(prog))

	fmt.Fprintf(&b, "func main() {\n\tgobert.Main(gobert.ProgramSpec{\n\t\tName: progName,\n\t\tSource: progSource,\n\t\tFast: %t,\n\t\tNoChecks: %t,\n\t\tFingerprint: progFingerprint,\n\t\tInstall: install,\n\t})\n}\n\n", opts.Fast, opts.NoChecks)

	maxID := 0
	var compiled []int
	for fi, f := range prog.Funcs {
		if f.ID > maxID {
			maxID = f.ID
		}
		if n := countInstrs(f); n > 0 && n <= maxInlineInstrs {
			compiled = append(compiled, fi)
		}
	}

	b.WriteString("func install(p *gobert.Program) gobert.SliceFn {\n")
	fmt.Fprintf(&b, "\tfns := make([]gobert.FuncFn, %d)\n", maxID+1)
	for _, fi := range compiled {
		fmt.Fprintf(&b, "\tfn%dBlocks = p.Funcs[%d].Blocks\n", fi, fi)
		fmt.Fprintf(&b, "\tfns[p.Funcs[%d].ID] = fn%d\n", fi, fi)
	}
	b.WriteString("\treturn gobert.MakeSlice(fns)\n}\n")

	for _, fi := range compiled {
		genFunc(&b, prog, fi)
	}
	return b.String()
}

func countInstrs(f *ir.Func) int {
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Instrs)
	}
	return n
}

// fnGen generates one compiled function.
type fnGen struct {
	b        *strings.Builder
	f        *ir.Func
	fi       int
	blockPos map[*ir.Block]int // position of each block in f.Blocks
	starts   []int             // pc of each block's first instr, by position
}

func genFunc(b *strings.Builder, prog *ir.Program, fi int) {
	f := prog.Funcs[fi]
	g := &fnGen{b: b, f: f, fi: fi, blockPos: make(map[*ir.Block]int, len(f.Blocks))}
	maxBlockID := 0
	pc := 0
	for bi, blk := range f.Blocks {
		g.blockPos[blk] = bi
		g.starts = append(g.starts, pc)
		pc += len(blk.Instrs)
		if blk.ID > maxBlockID {
			maxBlockID = blk.ID
		}
	}
	total := pc

	// Static dispatch tables: block list resolved at install time, block
	// start offsets by block ID (IDs index whatever the frontend
	// assigned; missing slots hold a sentinel that lands in the dispatch
	// default and falls back).
	startByID := make([]int, maxBlockID+1)
	for i := range startByID {
		startByID[i] = -1 << 20
	}
	for bi, blk := range f.Blocks {
		startByID[blk.ID] = g.starts[bi]
	}
	fmt.Fprintf(b, "\nvar fn%dBlocks []*gobert.Block\n", fi)
	fmt.Fprintf(b, "\nvar fn%dStarts = []int{", fi)
	for i, s := range startByID {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%d", s)
	}
	b.WriteString("}\n")

	fmt.Fprintf(b, "\n// fn%d compiles %s.\n", fi, f.Name)
	fmt.Fprintf(b, "func fn%d(m *gobert.VM, t *gobert.Task, a *gobert.Activation, budget int) (int, bool) {\n", fi)
	b.WriteString("\tg := m.Globals()\n\t_ = g\n")
	// Batched accounting: when no listener is attached (fast), inline
	// retirements accumulate in (nret, ncyc) and flush via m.Bump at
	// every observation point — any fallback step, or slice exit. With a
	// listener, every retirement calls m.Retire so per-instruction Exec
	// events keep the interpreter's exact order.
	b.WriteString("\tct := m.CostTab()\n\t_ = ct\n")
	b.WriteString("\tfast := m.NoLis()\n\t_ = fast\n")
	b.WriteString("\tnret := 0\n")
	b.WriteString("\tvar ncyc uint64\n")
	b.WriteString("\tvar s []gobert.Value\n")
	b.WriteString("redispatch:\n")
	b.WriteString("\tif budget <= 0 {\n\t\tgoto exitF\n\t}\n")
	b.WriteString("\tif m.SliceStop(t) {\n\t\tgoto exitT\n\t}\n")
	b.WriteString("\tif t.Top() != a || a.Block == nil || a.Idx >= len(a.Block.Instrs) {\n\t\tgoto exitF\n\t}\n")
	b.WriteString("\ts = a.Slots\n\t_ = s\n")
	fmt.Fprintf(b, "\tswitch fn%dStarts[a.Block.ID] + a.Idx {\n", fi)
	for p := 0; p < total; p++ {
		fmt.Fprintf(b, "\tcase %d:\n\t\tgoto I%d\n", p, p)
	}
	b.WriteString("\tdefault:\n\t\tgoto exitF\n\t}\n")

	pc = 0
	for _, blk := range f.Blocks {
		for k, in := range blk.Instrs {
			g.genInstr(pc, blk, k, in)
			pc++
		}
	}
	b.WriteString("exitF:\n")
	b.WriteString("\tif nret > 0 {\n\t\tm.Bump(t, nret, ncyc)\n\t}\n")
	b.WriteString("\treturn budget, false\n")
	b.WriteString("exitT:\n")
	b.WriteString("\tif nret > 0 {\n\t\tm.Bump(t, nret, ncyc)\n\t}\n")
	b.WriteString("\treturn budget, true\n")
	b.WriteString("}\n")
}

// nextJump is the goto that advances straight-line flow past pc.
func (g *fnGen) nextJump(blk *ir.Block, k, pc int) string {
	if k+1 < len(blk.Instrs) {
		return fmt.Sprintf("goto I%d", pc+1)
	}
	// A valid block never falls off its end (terminator invariant); route
	// through redispatch defensively.
	return "goto redispatch"
}

func isHere(v *ir.Var) bool { return v != nil && v.IsGlobal && v.Name == "here" }

// cellExpr is the raw storage cell (no deref) — cellOf.
func cellExpr(v *ir.Var) string {
	if v.IsGlobal {
		return fmt.Sprintf("(&g[%d])", v.Slot)
	}
	return fmt.Sprintf("(&s[%d])", v.Slot)
}

// emitReadPtr mirrors vm.readPtr: raw cell, deref through refs.
func (g *fnGen) emitReadPtr(name string, v *ir.Var) {
	fmt.Fprintf(g.b, "\t\t%s := %s\n", name, cellExpr(v))
	fmt.Fprintf(g.b, "\t\tif %s.K == gobert.KRef {\n\t\t\t%s = %s.Deref()\n\t\t}\n", name, name, name)
}

// emitDstCell mirrors vm.assignVar's cell resolution plus the scalar
// guard that makes copyValueInto a plain struct store.
func (g *fnGen) emitDstCell(name string, v *ir.Var, fall string) {
	fmt.Fprintf(g.b, "\t\t%s := %s\n", name, cellExpr(v))
	fmt.Fprintf(g.b, "\t\tif %s.K == gobert.KRef {\n\t\t\t%s = %s.Deref()\n\t\t}\n", name, name, name)
	g.emitScalarGuard(name, fall)
}

func (g *fnGen) emitScalarGuard(name, fall string) {
	fmt.Fprintf(g.b, "\t\tif %s.K == gobert.KArray || %s.K == gobert.KTuple || %s.K == gobert.KRecord {\n\t\t\tgoto %s\n\t\t}\n", name, name, name, fall)
}

// emitCopy emits a scalar Value copy from *src to *dst: kind tag plus
// that kind's payload field, inline (a helper call defeats the point).
// A whole-struct copy moves all 64 bytes of gobert.Value with write
// barriers on its pointer words; stale bytes in the other payload
// fields are unobservable because every read dispatches on K first.
// Reals first: numeric kernels are the hot case. Rare scalar kinds
// (string, range, ref, ...) keep the full copy.
func (g *fnGen) emitCopy(dst, src string) {
	fmt.Fprintf(g.b, "\t\tif %s.K == gobert.KReal {\n\t\t\t%s.K = gobert.KReal\n\t\t\t%s.F = %s.F\n", src, dst, dst, src)
	fmt.Fprintf(g.b, "\t\t} else if %s.K == gobert.KInt {\n\t\t\t%s.K = gobert.KInt\n\t\t\t%s.I = %s.I\n", src, dst, dst, src)
	fmt.Fprintf(g.b, "\t\t} else if %s.K == gobert.KBool {\n\t\t\t%s.K = gobert.KBool\n\t\t\t%s.B = %s.B\n", src, dst, dst, src)
	fmt.Fprintf(g.b, "\t\t} else {\n\t\t\t*%s = *%s\n\t\t}\n", dst, src)
}

// emitRetireAdvance closes a straight-line inline op: charge + listener
// with Idx still on the retiring instruction, then advance.
func (g *fnGen) emitRetireAdvance(in *ir.Instr, acc string, blk *ir.Block, k, pc int) {
	g.emitRetire(in, acc)
	fmt.Fprintf(g.b, "\t\ta.Idx = %d\n", k+1)
	g.b.WriteString("\t\tbudget--\n")
	fmt.Fprintf(g.b, "\t\t%s\n", g.nextJump(blk, k, pc))
}

// emitRetire charges one retirement: batched when fast, through Retire
// (which drives the listener) otherwise.
func (g *fnGen) emitRetire(in *ir.Instr, acc string) {
	fmt.Fprintf(g.b, "\t\tif fast {\n\t\t\tnret++\n\t\t\tncyc += ct[%d]\n\t\t} else {\n\t\t\tm.Retire(t, %d, %s)\n\t\t}\n", in.Addr, in.Addr, acc)
}

// emitFlush drains the batched accounting before an observation point
// (a no-op when a listener is attached: nothing accumulates then).
func (g *fnGen) emitFlush(indent string) {
	fmt.Fprintf(g.b, "%sif nret > 0 {\n%s\tm.Bump(t, nret, ncyc)\n%s\tnret = 0\n%s\tncyc = 0\n%s}\n", indent, indent, indent, indent, indent)
}

// emitFallback emits the shared guard-miss tail: execute exactly this
// one instruction in the interpreter, then rejoin dispatch.
func (g *fnGen) emitFallback(label string, blk *ir.Block, k, pc int) {
	fmt.Fprintf(g.b, "%s:\n", label)
	g.emitFlush("\t")
	g.b.WriteString("\tif !m.StepOne(t) {\n\t\tbudget--\n\t\tgoto exitT\n\t}\n")
	g.b.WriteString("\tbudget--\n")
	g.emitRejoin(blk, k, pc)
}

// emitRejoin resumes compiled execution after an interpreted step. When
// the step was a plain straight-line advance in the same frame (the
// common case), control jumps directly to the next instruction; jumps
// reset Idx to 0 and calls/returns change the top frame, so both fail
// the guard and take the full redispatch path.
func (g *fnGen) emitRejoin(blk *ir.Block, k, pc int) {
	if k+1 < len(blk.Instrs) {
		fmt.Fprintf(g.b, "\tif t.Top() == a && a.Idx == %d && !m.SliceStop(t) {\n\t\tgoto I%d\n\t}\n", k+1, pc+1)
	}
	g.b.WriteString("\tgoto redispatch\n")
}

func (g *fnGen) genInstr(pc int, blk *ir.Block, k int, in *ir.Instr) {
	fmt.Fprintf(g.b, "I%d:\n", pc)
	g.b.WriteString("\tif budget <= 0 {\n\t\tgoto exitF\n\t}\n")

	fall := fmt.Sprintf("F%d", pc)
	var body func() bool // emits inline body, reports whether fall was referenced
	switch in.Op {
	case ir.OpNop, ir.OpYield, ir.OpZipSetup, ir.OpZipAdvance:
		body = func() bool {
			g.emitRetireAdvance(in, "nil", blk, k, pc)
			return false
		}
	case ir.OpConst:
		body = g.genConst(in, blk, k, pc)
	case ir.OpMove:
		body = g.genMove(in, blk, k, pc, fall)
	case ir.OpBin:
		body = g.genBin(in, blk, k, pc, fall)
	case ir.OpUn:
		body = g.genUn(in, blk, k, pc, fall)
	case ir.OpJmp:
		body = g.genJmp(in)
	case ir.OpBr:
		body = g.genBr(in, fall)
	case ir.OpIndex:
		body = g.genIndex(in, blk, k, pc, fall)
	case ir.OpIndexStore:
		body = g.genIndexStore(in, blk, k, pc, fall)
	case ir.OpRefElem:
		body = g.genRefElem(in, blk, k, pc, fall)
	case ir.OpTupleGet:
		body = g.genTupleGet(in, blk, k, pc, fall)
	case ir.OpTupleSet:
		body = g.genTupleSet(in, blk, k, pc, fall)
	case ir.OpRefField:
		body = g.genRefField(in, blk, k, pc, fall)
	case ir.OpField:
		body = g.genField(in, blk, k, pc, fall)
	case ir.OpFieldStore:
		body = g.genFieldStore(in, blk, k, pc, fall)
	}

	if body == nil {
		// Not inlined: the interpreter executes it.
		g.emitFlush("\t")
		g.b.WriteString("\tif !m.StepOne(t) {\n\t\tbudget--\n\t\tgoto exitT\n\t}\n")
		g.b.WriteString("\tbudget--\n")
		g.emitRejoin(blk, k, pc)
		return
	}
	g.b.WriteString("\t{\n")
	usedFall := body()
	g.b.WriteString("\t}\n")
	if usedFall {
		g.emitFallback(fall, blk, k, pc)
	}
}

func (g *fnGen) genConst(in *ir.Instr, blk *ir.Block, k, pc int) func() bool {
	l := in.Lit
	// A string literal stays interpreted: the interpreter's value names
	// the IR literal's text, where inline code would box a copy per run.
	if l == nil || l.T == nil || l.T.Kind() == types.String || in.Dst == nil || isHere(in.Dst) {
		return nil
	}
	return func() bool {
		// bindCell: replace the raw cell outright (no deref). Partial
		// stores (K + the inline payload field for K) instead of a full
		// 64-byte struct store: every Value read dispatches on K first,
		// so stale bytes in the other payload fields are unobservable.
		fmt.Fprintf(g.b, "\t\tc0 := %s\n", cellExpr(in.Dst))
		switch l.T.Kind() {
		case types.Int:
			fmt.Fprintf(g.b, "\t\tc0.K = gobert.KInt\n\t\tc0.I = %d\n", l.I)
		case types.Real:
			// Exact bit patterns: formatting round trips must never
			// perturb a differential comparison.
			fmt.Fprintf(g.b, "\t\tc0.K = gobert.KReal\n\t\tc0.F = math.Float64frombits(0x%016x)\n", math.Float64bits(l.F))
		case types.Bool:
			fmt.Fprintf(g.b, "\t\tc0.K = gobert.KBool\n\t\tc0.B = %t\n", l.B)
		default:
			g.b.WriteString("\t\t*c0 = gobert.Value{}\n")
		}
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return false
	}
}

func (g *fnGen) genMove(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.Rebind || in.A == nil || in.Dst == nil || isHere(in.A) || isHere(in.Dst) {
		return nil
	}
	return func() bool {
		g.emitReadPtr("p0", in.A)
		g.emitScalarGuard("p0", fall)
		g.emitDstCell("dc", in.Dst, fall)
		g.emitCopy("dc", "p0")
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}

var goBinOp = map[token.Kind]string{
	token.PLUS: "+", token.MINUS: "-", token.STAR: "*",
	token.EQ: "==", token.NEQ: "!=", token.LT: "<", token.LE: "<=",
	token.GT: ">", token.GE: ">=",
}

// genBin and genUn inline arith.Bin's and arith.Un's int/real/bool
// cases: the one deliberate second copy of the operator semantics,
// kept because inline code is where the native backend's speed comes
// from. FuzzBackendDiff and paperbench -diffbe pin it to the interpreter.
func (g *fnGen) genBin(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.A == nil || in.B == nil || in.Dst == nil ||
		isHere(in.A) || isHere(in.B) || isHere(in.Dst) {
		return nil
	}
	op := in.BinOp
	switch op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.POW,
		token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE,
		token.AND, token.OR:
	default:
		return nil // PERCENT (int-only, zero check) and the rest stay interpreted
	}
	return func() bool {
		g.emitReadPtr("p0", in.A)
		g.emitReadPtr("p1", in.B)
		g.emitDstCell("dc", in.Dst, fall)
		numeric := "(p0.K == gobert.KInt || p0.K == gobert.KReal) && (p1.K == gobert.KInt || p1.K == gobert.KReal)"
		bothInt := "p0.K == gobert.KInt && p1.K == gobert.KInt"
		// Results are computed into a temporary before the partial store:
		// dc may alias p0 or p1 (x = x + y), and AsReal dispatches on the
		// K field the store overwrites.
		switch op {
		case token.PLUS, token.MINUS, token.STAR:
			o := goBinOp[op]
			fmt.Fprintf(g.b, "\t\tif %s {\n", bothInt)
			fmt.Fprintf(g.b, "\t\t\tvi := p0.I %s p1.I\n\t\t\tdc.K = gobert.KInt\n\t\t\tdc.I = vi\n", o)
			fmt.Fprintf(g.b, "\t\t} else if %s {\n", numeric)
			fmt.Fprintf(g.b, "\t\t\tvf := gobert.AsRealF(p0) %s gobert.AsRealF(p1)\n\t\t\tdc.K = gobert.KReal\n\t\t\tdc.F = vf\n", o)
			fmt.Fprintf(g.b, "\t\t} else {\n\t\t\tgoto %s\n\t\t}\n", fall)
		case token.SLASH:
			// Int division can fail (divide by zero) — interpreted.
			fmt.Fprintf(g.b, "\t\tif %s {\n\t\t\tgoto %s\n\t\t} else if %s {\n", bothInt, fall, numeric)
			g.b.WriteString("\t\t\tvf := gobert.AsRealF(p0) / gobert.AsRealF(p1)\n\t\t\tdc.K = gobert.KReal\n\t\t\tdc.F = vf\n")
			fmt.Fprintf(g.b, "\t\t} else {\n\t\t\tgoto %s\n\t\t}\n", fall)
		case token.POW:
			fmt.Fprintf(g.b, "\t\tif %s {\n", bothInt)
			g.b.WriteString("\t\t\tvi := gobert.IPow(p0.I, p1.I)\n\t\t\tdc.K = gobert.KInt\n\t\t\tdc.I = vi\n")
			fmt.Fprintf(g.b, "\t\t} else if %s {\n", numeric)
			g.b.WriteString("\t\t\tvf := math.Pow(gobert.AsRealF(p0), gobert.AsRealF(p1))\n\t\t\tdc.K = gobert.KReal\n\t\t\tdc.F = vf\n")
			fmt.Fprintf(g.b, "\t\t} else {\n\t\t\tgoto %s\n\t\t}\n", fall)
		case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
			o := goBinOp[op]
			// As in arith.Bin: two ints compare exactly, any other
			// numeric pair through float64.
			fmt.Fprintf(g.b, "\t\tif %s {\n", bothInt)
			fmt.Fprintf(g.b, "\t\t\tvb := p0.I %s p1.I\n\t\t\tdc.K = gobert.KBool\n\t\t\tdc.B = vb\n", o)
			fmt.Fprintf(g.b, "\t\t} else if %s {\n", numeric)
			fmt.Fprintf(g.b, "\t\t\tvb := gobert.AsRealF(p0) %s gobert.AsRealF(p1)\n\t\t\tdc.K = gobert.KBool\n\t\t\tdc.B = vb\n", o)
			if op == token.EQ || op == token.NEQ {
				g.b.WriteString("\t\t} else if p0.K == gobert.KBool && p1.K == gobert.KBool {\n")
				fmt.Fprintf(g.b, "\t\t\tvb := p0.B %s p1.B\n\t\t\tdc.K = gobert.KBool\n\t\t\tdc.B = vb\n", o)
			}
			fmt.Fprintf(g.b, "\t\t} else {\n\t\t\tgoto %s\n\t\t}\n", fall)
		case token.AND, token.OR:
			o := "&&"
			if op == token.OR {
				o = "||"
			}
			g.b.WriteString("\t\tif p0.K == gobert.KBool && p1.K == gobert.KBool {\n")
			fmt.Fprintf(g.b, "\t\t\tvb := p0.B %s p1.B\n\t\t\tdc.K = gobert.KBool\n\t\t\tdc.B = vb\n", o)
			fmt.Fprintf(g.b, "\t\t} else {\n\t\t\tgoto %s\n\t\t}\n", fall)
		}
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}

func (g *fnGen) genUn(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.A == nil || in.Dst == nil || isHere(in.A) || isHere(in.Dst) {
		return nil
	}
	if in.BinOp != token.MINUS && in.BinOp != token.NOT {
		return nil
	}
	return func() bool {
		g.emitReadPtr("p0", in.A)
		g.emitDstCell("dc", in.Dst, fall)
		if in.BinOp == token.MINUS {
			g.b.WriteString("\t\tif p0.K == gobert.KInt {\n")
			g.b.WriteString("\t\t\tvi := -p0.I\n\t\t\tdc.K = gobert.KInt\n\t\t\tdc.I = vi\n")
			g.b.WriteString("\t\t} else if p0.K == gobert.KReal {\n")
			g.b.WriteString("\t\t\tvf := -p0.F\n\t\t\tdc.K = gobert.KReal\n\t\t\tdc.F = vf\n")
			fmt.Fprintf(g.b, "\t\t} else {\n\t\t\tgoto %s\n\t\t}\n", fall)
		} else {
			fmt.Fprintf(g.b, "\t\tif p0.K != gobert.KBool {\n\t\t\tgoto %s\n\t\t}\n", fall)
			g.b.WriteString("\t\tvb := !p0.B\n\t\tdc.K = gobert.KBool\n\t\tdc.B = vb\n")
		}
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}

func (g *fnGen) genJmp(in *ir.Instr) func() bool {
	if len(in.Targets) < 1 {
		return nil
	}
	tp, ok := g.blockPos[in.Targets[0]]
	if !ok {
		return nil
	}
	return func() bool {
		g.emitRetire(in, "nil")
		fmt.Fprintf(g.b, "\t\ta.Block = fn%dBlocks[%d]\n", g.fi, tp)
		g.b.WriteString("\t\ta.Idx = 0\n\t\tbudget--\n\t\tgoto redispatch\n")
		return false
	}
}

func (g *fnGen) genBr(in *ir.Instr, fall string) func() bool {
	if in.A == nil || isHere(in.A) || len(in.Targets) < 2 {
		return nil
	}
	t0, ok0 := g.blockPos[in.Targets[0]]
	t1, ok1 := g.blockPos[in.Targets[1]]
	if !ok0 || !ok1 {
		return nil
	}
	return func() bool {
		g.emitReadPtr("p0", in.A)
		// The non-bool failure path charges before failing — interpreted.
		fmt.Fprintf(g.b, "\t\tif p0.K != gobert.KBool {\n\t\t\tgoto %s\n\t\t}\n", fall)
		g.emitRetire(in, "nil")
		fmt.Fprintf(g.b, "\t\tif p0.B {\n\t\t\ta.Block = fn%dBlocks[%d]\n\t\t} else {\n\t\t\ta.Block = fn%dBlocks[%d]\n\t\t}\n", g.fi, t0, g.fi, t1)
		g.b.WriteString("\t\ta.Idx = 0\n\t\tbudget--\n\t\tgoto redispatch\n")
		return true
	}
}

// emitElem resolves a rank-1, stride-free, locally-owned element access:
// base cell -> array -> bounds -> layout cell -> owner locality. Any
// miss (wrong kind, rank, tuple index, out of bounds, distributed or
// remote owner) falls back, where the interpreter reproduces the exact
// cost/comm/failure behavior.
func (g *fnGen) emitElem(base, idx *ir.Var, fall string) {
	g.emitReadPtr("p0", base)
	g.b.WriteString("\t\tar := p0.Arr()\n")
	fmt.Fprintf(g.b, "\t\tif p0.K != gobert.KArray || ar == nil {\n\t\t\tgoto %s\n\t\t}\n", fall)
	fmt.Fprintf(g.b, "\t\tif ar.Dom.Rank != 1 || ar.Layout.Rank != 1 {\n\t\t\tgoto %s\n\t\t}\n", fall)
	g.emitReadPtr("p1", idx)
	fmt.Fprintf(g.b, "\t\tif p1.K != gobert.KInt {\n\t\t\tgoto %s\n\t\t}\n", fall)
	g.b.WriteString("\t\ti := p1.I\n")
	fmt.Fprintf(g.b, "\t\tif i < ar.Dom.Dims[0].Lo || i > ar.Dom.Dims[0].Hi {\n\t\t\tgoto %s\n\t\t}\n", fall)
	fmt.Fprintf(g.b, "\t\tif i < ar.Layout.Dims[0].Lo || i > ar.Layout.Dims[0].Hi {\n\t\t\tgoto %s\n\t\t}\n", fall)
	g.b.WriteString("\t\tc := &ar.Data[i-ar.Layout.Dims[0].Lo]\n")
	g.b.WriteString("\t\to := ar.Owner()\n")
	fmt.Fprintf(g.b, "\t\tif o.DistBlock || o.LocaleID != t.Locale {\n\t\t\tgoto %s\n\t\t}\n", fall)
}

func elemOK(in *ir.Instr, base *ir.Var) bool {
	return base != nil && len(in.Args) == 1 && in.Args[0] != nil &&
		!isHere(base) && !isHere(in.Args[0])
}

func (g *fnGen) genIndex(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if !elemOK(in, in.A) || in.Dst == nil || isHere(in.Dst) {
		return nil
	}
	return func() bool {
		g.emitElem(in.A, in.Args[0], fall)
		g.emitScalarGuard("c", fall) // FlatSize == 1: no PerElem surcharge
		g.emitDstCell("dc", in.Dst, fall)
		g.emitCopy("dc", "c")
		g.emitRetireAdvance(in, "o", blk, k, pc)
		return true
	}
}

func (g *fnGen) genIndexStore(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if !elemOK(in, in.Dst) || in.A == nil || isHere(in.A) {
		return nil
	}
	return func() bool {
		g.emitElem(in.Dst, in.Args[0], fall)
		g.emitScalarGuard("c", fall)
		g.emitReadPtr("p2", in.A)
		g.emitScalarGuard("p2", fall)
		g.emitCopy("c", "p2")
		g.emitRetireAdvance(in, "o", blk, k, pc)
		return true
	}
}

func (g *fnGen) genRefElem(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if !elemOK(in, in.A) || in.Dst == nil || isHere(in.Dst) {
		return nil
	}
	return func() bool {
		g.emitElem(in.A, in.Args[0], fall)
		// bindCell(dst, MakeRef(c)): raw cell, ref-to-ref collapsed.
		fmt.Fprintf(g.b, "\t\tdv := %s\n", cellExpr(in.Dst))
		g.b.WriteString("\t\t*dv = gobert.MakeRef(c)\n")
		g.emitRetireAdvance(in, "o", blk, k, pc)
		return true
	}
}

// emitCompositeBase reads a tuple/record base into p0 (falling back on
// any other kind — class bases carry a ClassDeref surcharge and the rest
// are failure paths).
func (g *fnGen) emitCompositeBase(v *ir.Var, fall string) {
	g.emitReadPtr("p0", v)
	fmt.Fprintf(g.b, "\t\tif p0.K != gobert.KTuple && p0.K != gobert.KRecord {\n\t\t\tgoto %s\n\t\t}\n", fall)
}

// tupleIxOK reports whether the instruction's tuple index (static
// FieldIx or dynamic in.B) is inline-resolvable.
func tupleIxOK(in *ir.Instr) bool {
	return in.FieldIx >= 0 || (in.B != nil && !isHere(in.B))
}

// emitTupleIx mirrors vm.tupleIndex over the base in p0: 1-based for
// tuples, 0-based for records, bounds misses fall back to the
// interpreter's failure path.
func (g *fnGen) emitTupleIx(in *ir.Instr, fall string) {
	if in.FieldIx >= 0 {
		fmt.Fprintf(g.b, "\t\tix := int64(%d)\n", in.FieldIx)
	} else {
		g.emitReadPtr("p1", in.B)
		fmt.Fprintf(g.b, "\t\tif p1.K != gobert.KInt {\n\t\t\tgoto %s\n\t\t}\n", fall)
		g.b.WriteString("\t\tix := p1.I\n")
	}
	g.b.WriteString("\t\tif p0.K == gobert.KTuple {\n\t\t\tix--\n\t\t}\n")
	fmt.Fprintf(g.b, "\t\tif ix < 0 || ix >= int64(len(p0.Elems)) {\n\t\t\tgoto %s\n\t\t}\n", fall)
}

func (g *fnGen) genTupleGet(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.A == nil || in.Dst == nil || isHere(in.A) || isHere(in.Dst) || !tupleIxOK(in) {
		return nil
	}
	return func() bool {
		g.emitCompositeBase(in.A, fall)
		g.emitTupleIx(in, fall)
		// assignVar derefs the source element; composite elements take the
		// deep-copy path and stay interpreted.
		g.b.WriteString("\t\tc := &p0.Elems[ix]\n")
		g.b.WriteString("\t\tif c.K == gobert.KRef {\n\t\t\tc = c.Deref()\n\t\t}\n")
		g.emitScalarGuard("c", fall)
		g.emitDstCell("dc", in.Dst, fall)
		g.emitCopy("dc", "c")
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}

func (g *fnGen) genTupleSet(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.Dst == nil || in.A == nil || isHere(in.Dst) || isHere(in.A) || !tupleIxOK(in) {
		return nil
	}
	return func() bool {
		g.emitCompositeBase(in.Dst, fall)
		g.emitTupleIx(in, fall)
		g.emitReadPtr("p2", in.A)
		// Composite sources are deep-copied into the element — interpreted.
		g.emitScalarGuard("p2", fall)
		g.b.WriteString("\t\te0 := &p0.Elems[ix]\n")
		g.emitCopy("e0", "p2")
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}

func (g *fnGen) genRefField(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.A == nil || in.Dst == nil || isHere(in.A) || isHere(in.Dst) || !tupleIxOK(in) {
		return nil
	}
	return func() bool {
		g.emitCompositeBase(in.A, fall)
		g.emitTupleIx(in, fall)
		g.b.WriteString("\t\tc := &p0.Elems[ix]\n")
		// bindCell(dst, MakeRef(c)): raw cell, ref-to-ref collapsed.
		fmt.Fprintf(g.b, "\t\tdv := %s\n", cellExpr(in.Dst))
		g.b.WriteString("\t\t*dv = gobert.MakeRef(c)\n")
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}

func (g *fnGen) genField(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.A == nil || in.Dst == nil || isHere(in.A) || isHere(in.Dst) || in.FieldIx < 0 {
		return nil
	}
	return func() bool {
		g.emitCompositeBase(in.A, fall)
		// fieldCell uses the raw field index for tuples and records alike.
		fmt.Fprintf(g.b, "\t\tif %d >= len(p0.Elems) {\n\t\t\tgoto %s\n\t\t}\n", in.FieldIx, fall)
		fmt.Fprintf(g.b, "\t\tc := &p0.Elems[%d]\n", in.FieldIx)
		// The FlatSize surcharge is computed pre-deref; composite cells
		// (surcharge != 0) and composite deref targets (deep copy) both
		// stay interpreted.
		g.emitScalarGuard("c", fall)
		g.b.WriteString("\t\tif c.K == gobert.KRef {\n\t\t\tc = c.Deref()\n\t\t}\n")
		g.emitScalarGuard("c", fall)
		g.emitDstCell("dc", in.Dst, fall)
		g.emitCopy("dc", "c")
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}

func (g *fnGen) genFieldStore(in *ir.Instr, blk *ir.Block, k, pc int, fall string) func() bool {
	if in.Dst == nil || in.A == nil || isHere(in.Dst) || isHere(in.A) || in.FieldIx < 0 {
		return nil
	}
	return func() bool {
		g.emitCompositeBase(in.Dst, fall)
		fmt.Fprintf(g.b, "\t\tif %d >= len(p0.Elems) {\n\t\t\tgoto %s\n\t\t}\n", in.FieldIx, fall)
		fmt.Fprintf(g.b, "\t\tc := &p0.Elems[%d]\n", in.FieldIx)
		// assignInto does not deref the destination cell (a ref-valued
		// field is replaced outright); composite cells broadcast or bulk
		// copy and stay interpreted, as do composite sources (surcharge).
		g.emitScalarGuard("c", fall)
		g.emitReadPtr("p2", in.A)
		g.emitScalarGuard("p2", fall)
		g.emitCopy("c", "p2")
		g.emitRetireAdvance(in, "nil", blk, k, pc)
		return true
	}
}
