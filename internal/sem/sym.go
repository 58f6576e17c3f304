// Package sem implements semantic analysis for MiniChapel: name
// resolution, type inference and checking, and compile-time (param)
// evaluation. Its output (Info) drives IR generation and carries the
// variable identity information the blame profiler attributes samples to.
package sem

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/types"
)

// SymKind classifies a symbol.
type SymKind int

// Symbol kinds.
const (
	SymVar SymKind = iota
	SymProc
	SymType
	SymBuiltin
)

// Storage classifies where a variable lives — the distinction the paper's
// data-centric views surface (heap/static/local; HPCToolkit-like baselines
// only see the first two).
type Storage int

// Storage classes.
const (
	StorageGlobal Storage = iota // module-level (Chapel "global space")
	StorageLocal                 // procedure local
	StorageParam                 // formal parameter
	StorageField                 // record/class field
)

func (s Storage) String() string {
	switch s {
	case StorageGlobal:
		return "global"
	case StorageLocal:
		return "local"
	case StorageParam:
		return "param"
	case StorageField:
		return "field"
	}
	return "?"
}

// Symbol is a named program entity.
type Symbol struct {
	Name    string
	Kind    SymKind
	Type    types.Type
	Pos     source.Pos
	Storage Storage

	// VarKind is the declaration kind for SymVar (var/const/param/config).
	VarKind ast.VarKind
	// IsRefAlias marks `ref R = expr;` alias declarations (array slices
	// that alias their parent — RealPos/RealCount in MiniMD).
	IsRefAlias bool
	// RefParam marks formals with ref/inout/out intent (exit variables).
	RefParam bool
	// ConstVal holds the compile-time value for param symbols.
	ConstVal *ConstValue

	// Proc links a SymProc to its declaration.
	Proc *ast.ProcDecl
	// Owner is the enclosing procedure symbol for locals/params (nil for
	// globals); used to build the "Context" column of the blame tables.
	Owner *Symbol
	// Recv is the receiver record type for methods.
	Recv *types.RecordType

	// ID is a dense per-program index assigned in declaration order.
	ID int
}

func (s *Symbol) String() string { return s.Name }

// Context returns the paper's "Context" column value: the procedure the
// variable is defined in, or "main" for module-level globals.
func (s *Symbol) Context() string {
	if s.Owner != nil {
		return s.Owner.Name
	}
	return "main"
}

// ConstValue is a compile-time constant (param) value.
type ConstValue struct {
	T types.Type
	I int64
	F float64
	B bool
	S string
}

// Int returns the value as an int64.
func (v *ConstValue) Int() int64 {
	if v.T.Kind() == types.Real {
		return int64(v.F)
	}
	return v.I
}

// Float returns the value as a float64.
func (v *ConstValue) Float() float64 {
	if v.T.Kind() == types.Real {
		return v.F
	}
	return float64(v.I)
}

func (v *ConstValue) String() string {
	switch v.T.Kind() {
	case types.Int:
		return fmt.Sprintf("%d", v.I)
	case types.Real:
		return fmt.Sprintf("%g", v.F)
	case types.Bool:
		return fmt.Sprintf("%t", v.B)
	case types.String:
		return v.S
	}
	return "?"
}

// IntConst makes an int ConstValue.
func IntConst(i int64) *ConstValue { return &ConstValue{T: types.IntType, I: i} }

// RealConst makes a real ConstValue.
func RealConst(f float64) *ConstValue { return &ConstValue{T: types.RealType, F: f} }

// BoolConst makes a bool ConstValue.
func BoolConst(b bool) *ConstValue { return &ConstValue{T: types.BoolType, B: b} }

// Scope is a lexical scope.
type Scope struct {
	parent *Scope
	names  map[string]*Symbol
}

// NewScope returns a child scope of parent (parent may be nil).
func NewScope(parent *Scope) *Scope {
	return &Scope{parent: parent, names: make(map[string]*Symbol)}
}

// Insert declares sym in s, returning the previous symbol with that name
// in this exact scope, if any.
func (s *Scope) Insert(sym *Symbol) *Symbol {
	prev := s.names[sym.Name]
	s.names[sym.Name] = sym
	return prev
}

// Lookup resolves name through the scope chain.
func (s *Scope) Lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.names[name]; ok {
			return sym
		}
	}
	return nil
}

// LookupLocal resolves name in this scope only.
func (s *Scope) LookupLocal(name string) *Symbol {
	return s.names[name]
}
