// Package ir defines the typed three-address intermediate representation
// MiniChapel programs are compiled to. It plays the role LLVM bitcode +
// DWARF debug information play in the paper's pipeline: every instruction
// carries a source position and a unique address, every operand is a
// variable (source variables and flagged compiler temporaries), and
// parallel loop bodies are outlined into `forall_fn`/`coforall_fn`
// functions exactly as the Chapel compiler outlines them — which is what
// makes spawn-tag stack gluing (paper §IV.B/C) necessary and possible.
package ir

import (
	"fmt"

	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/token"
	"repro/internal/types"
)

// Op enumerates IR operations.
type Op int

// IR operations.
const (
	OpInvalid Op = iota

	// Data movement and arithmetic.
	OpConst // Dst = Lit
	OpMove  // Dst = A (big types copy elementwise — costed)
	OpBin   // Dst = A BinOp B
	OpUn    // Dst = BinOp A (MINUS/NOT)

	// Aggregates.
	OpMakeTuple  // Dst = (Args...)          — tuple construction (costed)
	OpTupleGet   // Dst = A(FieldIx) or A(B) — tuple element read
	OpTupleSet   // Dst(FieldIx)/Dst(B) = A  — tuple element write
	OpField      // Dst = A.FieldIx
	OpFieldStore // Dst.FieldIx = A
	OpIndex      // Dst = A[Args...]         — array element read
	OpIndexStore // Dst[Args...] = A         — array element write
	OpSlice      // Dst = A[B]               — array view over domain/range (aliases A)
	OpRefElem    // Dst = ref A[Args...]     — element alias (zip/loop binding)
	OpRefField   // Dst = ref A.FieldIx      — field alias (lvalue chains)

	// Ranges and domains.
	OpMakeRange  // Dst = A..B (or counted: A..#B) by C(Args[0] optional)
	OpMakeDomain // Dst = {Args...} (ranges)
	OpDomMethod  // Dst = A.Method(Args...)  — expand/translate/dim/interior...
	OpQuery      // Dst = A.Method           — size/low/high/domain...

	// Allocation.
	OpAllocArray // Dst = alloc array over domain A (elem domain B for nested)
	OpAllocRec   // Dst = new Class(...)

	// Calls.
	OpCall    // Dst = Callee(Args...)
	OpBuiltin // Dst = Builtin(Args...)

	// Control flow (block terminators).
	OpRet // return A (A may be nil)
	OpJmp // goto Targets[0]
	OpBr  // if A goto Targets[0] else Targets[1]

	// Parallelism (terminator-like but falls through; VM handles joins).
	OpSpawn // launch Callee over iteration space; Args = captures

	// Zippered-iteration overhead markers (emitted in outlined bodies'
	// prologues; Dst is the follower ref var so blame reaches the arrays).
	OpZipSetup   // per-loop-start per-iterand iterator construction
	OpZipAdvance // per-iteration follower advance

	// Runtime-internal (only in IsRuntime functions).
	OpYield // scheduler yield / idle spin quantum
	OpNop
)

var opNames = map[Op]string{
	OpConst: "const", OpMove: "move", OpBin: "bin", OpUn: "un",
	OpMakeTuple: "mktuple", OpTupleGet: "tget", OpTupleSet: "tset",
	OpField: "field", OpFieldStore: "fstore", OpIndex: "index",
	OpIndexStore: "istore", OpSlice: "slice", OpRefElem: "refelem", OpRefField: "reffield",
	OpMakeRange: "mkrange", OpMakeDomain: "mkdom", OpDomMethod: "dmethod",
	OpQuery: "query", OpAllocArray: "allocarr", OpAllocRec: "allocrec",
	OpCall: "call", OpBuiltin: "builtin", OpRet: "ret", OpJmp: "jmp",
	OpBr: "br", OpSpawn: "spawn", OpZipSetup: "zipsetup",
	OpZipAdvance: "zipadv", OpYield: "yield", OpNop: "nop",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// SpawnKind distinguishes parallel constructs.
type SpawnKind int

// Spawn kinds.
const (
	SpawnForall SpawnKind = iota
	SpawnCoforall
	SpawnBegin
	SpawnCobegin
	SpawnOn
)

func (k SpawnKind) String() string {
	switch k {
	case SpawnForall:
		return "forall"
	case SpawnCoforall:
		return "coforall"
	case SpawnBegin:
		return "begin"
	case SpawnCobegin:
		return "cobegin"
	case SpawnOn:
		return "on"
	}
	return "?"
}

// Lit is a literal constant operand.
type Lit struct {
	T types.Type
	I int64
	F float64
	B bool
	S string
}

func (l *Lit) String() string {
	switch l.T.Kind() {
	case types.Int:
		return fmt.Sprintf("%d", l.I)
	case types.Real:
		return fmt.Sprintf("%g", l.F)
	case types.Bool:
		return fmt.Sprintf("%t", l.B)
	case types.String:
		return fmt.Sprintf("%q", l.S)
	}
	return "?"
}

// Var is an IR variable: a source variable, formal parameter, global, or a
// flagged compiler temporary (temporaries are tracked through the blame
// analysis but hidden in user-facing views, per the paper §IV.A).
type Var struct {
	Name string
	Sym  *sem.Symbol // nil for temps and synthetic vars
	Type types.Type

	IsTemp   bool
	IsGlobal bool
	IsParam  bool
	// IsRef marks ref formals and ref-alias locals: writes through them
	// alias storage owned elsewhere.
	IsRef bool
	// Slot is the frame (or global-area) slot index.
	Slot int
	// Func owns locals/params; nil for globals.
	Func *Func
}

func (v *Var) String() string { return v.Name }

// Display reports whether the variable should appear in user-facing views.
func (v *Var) Display() bool { return !v.IsTemp && v.Sym != nil }

// Instr is one IR instruction.
type Instr struct {
	Op    Op
	Dst   *Var
	A, B  *Var
	Args  []*Var
	Lit   *Lit
	BinOp token.Kind
	// FieldIx is the constant field/tuple index (-1 when dynamic via B).
	FieldIx int
	// Method is the domain/array method or builtin name.
	Method string
	// Callee is the target for OpCall/OpSpawn.
	Callee *Func
	// Rebind marks an OpMove that (re)binds a ref variable to its
	// initializer's storage (`ref r = x`) rather than assigning through
	// it. Distinguishing the two in the IR lets the race pass reason
	// about writes through local refs instead of skipping them.
	Rebind bool
	// Spawn describes OpSpawn iteration.
	Spawn *SpawnInfo
	// Targets are the successor blocks for OpJmp (1) and OpBr (2).
	Targets [2]*Block

	Pos  source.Pos
	Addr uint64 // unique program-wide instruction address
	// Block and Index locate the instruction after Finalize.
	Block *Block
	Index int
}

// SpawnInfo describes the iteration space of an OpSpawn.
type SpawnInfo struct {
	Kind SpawnKind
	// Iter is the iteration source: a range, domain, or array var.
	// nil for begin/cobegin/on.
	Iter *Var
	// NumIdx is how many index parameters the outlined body takes.
	NumIdx int
	// Followers are zip-follower vars (arrays/ranges beyond the leader).
	Followers []*Var
	// Extra holds the remaining cobegin bodies (Callee is the first).
	Extra []*Func
	// ExtraArgs holds per-body capture args for Extra.
	ExtraArgs [][]*Var
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []*Instr
	Func   *Func

	// Preds/Succs are filled by Finalize.
	Preds, Succs []*Block
}

// Terminator returns the final instruction, or nil if the block is empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	switch t.Op {
	case OpRet, OpJmp, OpBr:
		return t
	}
	return nil
}

// Func is an IR function.
type Func struct {
	ID   int
	Name string
	Sym  *sem.Symbol
	Pos  source.Pos

	Params []*Var
	// RetVar is the return-value exit variable (nil for void).
	RetVar *Var
	Locals []*Var // all locals and temps (excluding params)
	Blocks []*Block

	// Outlined marks forall/coforall/begin body functions.
	Outlined bool
	// OutlinedFrom names the user function the body was outlined from.
	OutlinedFrom *Func
	// IsRuntime marks synthetic runtime-library functions (sched_yield,
	// task layer) — trimmed from blame call paths, visible to the
	// code-centric baseline (paper Fig. 4).
	IsRuntime bool
	// Parent is the lexically enclosing function for nested procs.
	Parent *Func

	Program *Program
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks), Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// AllVars returns params, return var and locals.
func (f *Func) AllVars() []*Var {
	out := make([]*Var, 0, len(f.Params)+len(f.Locals)+1)
	out = append(out, f.Params...)
	if f.RetVar != nil {
		out = append(out, f.RetVar)
	}
	out = append(out, f.Locals...)
	return out
}

// Program is a compiled IR module.
type Program struct {
	FileSet *source.FileSet
	Name    string

	Funcs   []*Func
	Globals []*Var

	Main       *Func
	ModuleInit *Func

	// Records lists record/class types with the domains their array
	// fields are allocated over (global domain vars), so the VM can
	// default-initialize instances.
	FieldDomains map[*types.RecordType]map[int]*Var

	// ConfigConsts maps config-const names to their global vars.
	ConfigConsts map[string]*Var

	// Instrs indexes every instruction by address after Finalize.
	Instrs []*Instr

	// Optimized records that the --fast pipeline ran (affects the VM cost
	// model the way -O3 codegen affects real cycle counts, and degrades
	// temp debug fidelity as described in paper §V).
	Optimized bool
	// NoChecks elides array bounds checks (--no-checks).
	NoChecks bool

	nextFuncID int
}

// NewProgram creates an empty program.
func NewProgram(fset *source.FileSet, name string) *Program {
	return &Program{
		FileSet:      fset,
		Name:         name,
		FieldDomains: make(map[*types.RecordType]map[int]*Var),
		ConfigConsts: make(map[string]*Var),
	}
}

// NewFunc appends a new function.
func (p *Program) NewFunc(name string, sym *sem.Symbol, pos source.Pos) *Func {
	f := &Func{ID: p.nextFuncID, Name: name, Sym: sym, Pos: pos, Program: p}
	p.nextFuncID++
	p.Funcs = append(p.Funcs, f)
	return f
}

// FuncByName returns the first function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// InstrAt resolves an instruction address (the "IP" of a sample).
func (p *Program) InstrAt(addr uint64) *Instr {
	i := int(addr)
	if i < 0 || i >= len(p.Instrs) {
		return nil
	}
	return p.Instrs[i]
}

// Finalize assigns instruction addresses and block indices and computes the
// CFG edges. Must be called once after construction.
func (p *Program) Finalize() {
	p.Instrs = p.Instrs[:0]
	var addr uint64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			b.Preds = b.Preds[:0]
			b.Succs = b.Succs[:0]
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i, ins := range b.Instrs {
				ins.Block = b
				ins.Index = i
				ins.Addr = addr
				addr++
				p.Instrs = append(p.Instrs, ins)
			}
			if t := b.Terminator(); t != nil {
				switch t.Op {
				case OpJmp:
					link(b, t.Targets[0])
				case OpBr:
					link(b, t.Targets[0])
					link(b, t.Targets[1])
				}
			}
		}
	}
}

func link(from, to *Block) {
	if to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ---------------------------------------------------------- use/def info

// Def returns the variable this instruction writes (the blame target of a
// direct write), or nil. Note OpIndexStore/OpFieldStore/OpTupleSet write
// *through* Dst: the write still blames Dst (and its aliases).
func (i *Instr) Def() *Var {
	switch i.Op {
	case OpRet, OpJmp, OpBr, OpNop, OpYield:
		return nil
	}
	return i.Dst
}

// Callees lists the functions the instruction can invoke: Callee (set
// only on OpCall and OpSpawn), then a cobegin's remaining bodies in
// order, so a body's index matches its position in the spawn.
func (i *Instr) Callees() []*Func {
	var out []*Func
	if i.Callee != nil {
		out = append(out, i.Callee)
	}
	if i.Spawn != nil {
		out = append(out, i.Spawn.Extra...)
	}
	return out
}

// IsStoreThrough reports whether the instruction writes through Dst into
// storage Dst references (element/field stores) rather than replacing
// Dst's own value.
func (i *Instr) IsStoreThrough() bool {
	switch i.Op {
	case OpIndexStore, OpFieldStore, OpTupleSet:
		return true
	}
	return false
}

// IsAliasDef reports whether the instruction makes Dst an alias of A
// (slices, element refs, and ref rebinds) — the alias edges the paper's
// blame definition includes in W.
func (i *Instr) IsAliasDef() bool {
	switch i.Op {
	case OpSlice, OpRefElem, OpRefField:
		return true
	case OpMove:
		return i.Rebind
	}
	return false
}

// Uses returns the variables this instruction reads.
func (i *Instr) Uses() []*Var {
	var out []*Var
	add := func(v *Var) {
		if v != nil {
			out = append(out, v)
		}
	}
	add(i.A)
	add(i.B)
	for _, a := range i.Args {
		add(a)
	}
	if i.IsStoreThrough() {
		// The base is read to compute the location.
		add(i.Dst)
	}
	if i.Spawn != nil {
		add(i.Spawn.Iter)
		for _, f := range i.Spawn.Followers {
			add(f)
		}
	}
	return out
}

// WritesRefArgs returns, for OpCall/OpSpawn, the argument vars passed to
// ref formals (potentially written by the callee).
func (i *Instr) WritesRefArgs() []*Var {
	if i.Op != OpCall && i.Op != OpSpawn {
		return nil
	}
	if i.Callee == nil {
		return nil
	}
	// Spawn bodies take their index parameters first; the spawn's Args
	// align with the params after them.
	skip := 0
	if i.Op == OpSpawn && i.Spawn != nil {
		skip = i.Spawn.NumIdx
	}
	var out []*Var
	for k, p := range i.Callee.Params {
		if k < skip {
			continue
		}
		if p.IsRef && k-skip < len(i.Args) {
			out = append(out, i.Args[k-skip])
		}
	}
	return out
}

func (i *Instr) String() string {
	s := i.Op.String()
	if i.Dst != nil {
		s = i.Dst.Name + " = " + s
	}
	if i.Lit != nil {
		s += " " + i.Lit.String()
	}
	if i.BinOp != 0 {
		s += " " + i.BinOp.String()
	}
	if i.A != nil {
		s += " " + i.A.Name
	}
	if i.B != nil {
		s += " " + i.B.Name
	}
	for _, a := range i.Args {
		s += " " + a.Name
	}
	if i.Method != "" {
		s += " ." + i.Method
	}
	if i.Callee != nil {
		s += " @" + i.Callee.Name
	}
	if i.Op == OpJmp {
		s += fmt.Sprintf(" b%d", i.Targets[0].ID)
	}
	if i.Op == OpBr {
		s += fmt.Sprintf(" b%d b%d", i.Targets[0].ID, i.Targets[1].ID)
	}
	return s
}
