package vm

import (
	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/token"
)

// CostModel assigns cycle costs to IR operations. The constants are
// calibrated so the paper's qualitative findings hold on the MiniChapel
// ports: zippered iteration and domain remapping inside hot loops are
// expensive (§V.A), repeated dynamic allocation of local arrays is
// expensive (LULESH's determ/dvdx, fixed by Variable Globalization),
// nested tuple construction/destruction is expensive (fixed by CENN),
// and nested-structure element access is slower than flat 2-D indexing
// (CLOMP).
type CostModel struct {
	IntALU      uint64 // integer add/sub/logic/compare
	RealALU     uint64 // fp add/sub/mul
	Div         uint64 // divide/modulus
	Pow         uint64 // exponentiation
	MathBuiltin uint64 // sqrt/cbrt/exp/...

	ConstLoad  uint64 // literal materialization
	MoveScalar uint64 // scalar register move
	PerElem    uint64 // per-element cost of bulk copies / whole-array ops

	IndexAddr   uint64 // address arithmetic per dimension
	BoundsCheck uint64 // per-access bounds check (elided by --no-checks)
	FieldAccess uint64 // record field offset access
	TupleBase   uint64 // tuple construction base cost
	TuplePerEl  uint64 // tuple construction per element

	MakeRange  uint64
	MakeDomain uint64
	DomMethod  uint64
	Query      uint64

	SliceCreate uint64 // view descriptor construction ("domain remapping")
	RefElem     uint64 // element alias binding

	AllocBase  uint64 // heap allocation base cost
	AllocPerEl uint64 // per-element initialization
	ClassAlloc uint64
	ClassDeref uint64 // pointer chase through a class handle
	AtomicOp   uint64 // LOCK-prefixed read-modify-write

	CallOverhead uint64 // frame setup + argument passing
	RetOverhead  uint64

	SpawnBase    uint64 // tasking-layer spawn cost
	SpawnPerTask uint64
	Barrier      uint64 // join barrier
	IterPerCall  uint64 // per-iteration body invocation (iterator advance)
	ZipSetup     uint64 // zippered iterator construction per iterand
	ZipAdvance   uint64 // zippered follower advance per iteration

	WriteBuiltin uint64 // writeln formatting
	YieldSpin    uint64 // one idle-spin quantum in the scheduler

	CommLatency uint64 // remote get/put base (multi-locale)
	CommPerByte uint64

	// FastScaleNum/Den scale all costs when the program was compiled with
	// --fast, modeling -O3 codegen quality beyond the IR-level folding the
	// compile package performs (documented substitution in DESIGN.md).
	FastScaleNum, FastScaleDen uint64

	// IcacheThreshold/IcacheDen model instruction-cache pressure: a
	// function whose body exceeds IcacheThreshold instructions pays an
	// extra (n - threshold)/IcacheDen fraction per instruction (capped at
	// 2x). This is what makes aggressive loop unrolling counterproductive
	// (paper Table VII: "sometimes it would be counterproductive since it
	// enlarges the code size").
	IcacheThreshold uint64
	IcacheDen       uint64
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		IntALU:      1,
		RealALU:     2,
		Div:         12,
		Pow:         24,
		MathBuiltin: 22,

		ConstLoad:  1,
		MoveScalar: 1,
		PerElem:    2,

		IndexAddr:   2,
		BoundsCheck: 3,
		FieldAccess: 3,
		TupleBase:   12,
		TuplePerEl:  4,

		MakeRange:  4,
		MakeDomain: 10,
		DomMethod:  14,
		Query:      2,

		SliceCreate: 320,
		RefElem:     3,

		AllocBase:  200,
		AllocPerEl: 10,
		ClassAlloc: 120,
		ClassDeref: 9,
		AtomicOp:   28,

		CallOverhead: 14,
		RetOverhead:  6,

		SpawnBase:    900,
		SpawnPerTask: 150,
		Barrier:      400,
		IterPerCall:  6,
		ZipSetup:     130,
		ZipAdvance:   34,

		WriteBuiltin: 40,
		YieldSpin:    50,

		CommLatency: 1200,
		CommPerByte: 1,

		FastScaleNum: 2,
		FastScaleDen: 5, // --fast runs at 40% of the unoptimized cycle cost

		IcacheThreshold: 160,
		IcacheDen:       1200,
	}
}

// scale applies the --fast codegen factor.
func (c *CostModel) scale(fast bool, cycles uint64) uint64 {
	if !fast {
		return cycles
	}
	s := cycles * c.FastScaleNum / c.FastScaleDen
	if s == 0 && cycles > 0 {
		s = 1
	}
	return s
}

// costTabKey identifies a precomputed per-instruction cost table.
// CostModel has only uint64 fields, so it is comparable and usable as a
// map key directly; Optimized/NoChecks ride along with the program
// identity.
type costTabKey struct {
	prog  *ir.Program
	costs CostModel
}

var costTabs = memo.New[costTabKey, []uint64]("vm.cost")

// costTable returns the per-instruction static cost, indexed by the dense
// Instr.Addr that Program.Finalize assigns. The table folds in the --fast
// scale and the per-function i-cache surcharge, so the interpreter's hot
// loop replaces an instrCost switch plus a map lookup with one slice
// load. Tables are immutable and shared across all VMs of the same
// (program, cost model) — dozens per experiment suite.
func costTable(prog *ir.Program, c CostModel) []uint64 {
	tab, _ := costTabs.Get(costTabKey{prog: prog, costs: c}, func() ([]uint64, error) {
		return buildCostTable(prog, c), nil
	})
	return tab
}

func buildCostTable(prog *ir.Program, c CostModel) []uint64 {
	// Per-function i-cache pressure surcharge (same arithmetic as the
	// previous per-step computation, applied per instruction).
	surcharge := make(map[*ir.Func]uint64)
	if c.IcacheDen > 0 {
		for _, f := range prog.Funcs {
			n := uint64(0)
			for _, b := range f.Blocks {
				n += uint64(len(b.Instrs))
			}
			if n > c.IcacheThreshold {
				extra := n - c.IcacheThreshold
				if extra > c.IcacheDen {
					extra = c.IcacheDen
				}
				surcharge[f] = extra
			}
		}
	}
	tab := make([]uint64, len(prog.Instrs))
	for _, in := range prog.Instrs {
		cycles := c.scale(prog.Optimized, c.instrCost(in, prog.NoChecks))
		if in.Block != nil {
			if ex := surcharge[in.Block.Func]; ex > 0 {
				cycles += cycles * ex / c.IcacheDen
			}
		}
		tab[in.Addr] = cycles
	}
	return tab
}

// instrCost computes the cycle cost of one executed instruction. Costs
// that depend on runtime values (bulk copy sizes, allocation sizes) are
// added by the executor on top of this static part.
func (c *CostModel) instrCost(in *ir.Instr, noChecks bool) uint64 {
	switch in.Op {
	case ir.OpConst:
		return c.ConstLoad
	case ir.OpMove:
		return c.MoveScalar
	case ir.OpBin:
		switch in.BinOp {
		case token.SLASH, token.PERCENT:
			return c.Div
		case token.POW:
			return c.Pow
		case token.PLUS, token.MINUS, token.STAR:
			return c.RealALU
		default:
			return c.IntALU
		}
	case ir.OpUn:
		return c.IntALU
	case ir.OpMakeTuple:
		return c.TupleBase + uint64(len(in.Args))*c.TuplePerEl
	case ir.OpTupleGet, ir.OpTupleSet:
		return c.FieldAccess
	case ir.OpField, ir.OpFieldStore:
		return c.FieldAccess
	case ir.OpIndex, ir.OpIndexStore:
		n := uint64(len(in.Args))
		if n == 0 {
			n = 1
		}
		cost := n * c.IndexAddr
		if !noChecks {
			cost += c.BoundsCheck
		}
		return cost
	case ir.OpSlice:
		return c.SliceCreate
	case ir.OpRefElem:
		n := uint64(len(in.Args))
		cost := c.RefElem + n*c.IndexAddr
		if !noChecks {
			cost += c.BoundsCheck
		}
		return cost
	case ir.OpRefField:
		return c.FieldAccess
	case ir.OpMakeRange:
		return c.MakeRange
	case ir.OpMakeDomain:
		return c.MakeDomain
	case ir.OpDomMethod:
		return c.DomMethod
	case ir.OpQuery:
		return c.Query
	case ir.OpAllocArray:
		return c.AllocBase
	case ir.OpAllocRec:
		return c.ClassAlloc
	case ir.OpCall:
		return c.CallOverhead
	case ir.OpBuiltin:
		return c.IntALU // refined by the executor per builtin
	case ir.OpRet:
		return c.RetOverhead
	case ir.OpJmp:
		return 1
	case ir.OpBr:
		return 2
	case ir.OpSpawn:
		return c.SpawnBase
	case ir.OpZipSetup:
		return c.ZipSetup
	case ir.OpZipAdvance:
		return c.ZipAdvance
	case ir.OpYield:
		return c.YieldSpin
	}
	return 1
}

// StaticCostTable exposes the per-instruction cost table (indexed by
// Instr.Addr, --fast scale and i-cache surcharge folded in) to static
// analyses: the symbolic cost engine (internal/analyze/cost) prices its
// predicted executions with exactly the cycles the interpreter would
// charge. The returned slice is shared and must not be mutated.
func StaticCostTable(prog *ir.Program, c CostModel) []uint64 {
	return costTable(prog, c)
}

// ScaleCost applies the --fast codegen factor the same way the executor
// does for its dynamic extra charges (bulk copies, allocations, comm).
func (c CostModel) ScaleCost(optimized bool, cycles uint64) uint64 {
	return c.scale(optimized, cycles)
}
