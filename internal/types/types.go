// Package types implements the MiniChapel type system: primitive scalars,
// homogeneous tuples (k*T), records/classes, ranges, rectangular domains,
// arrays over domains, and array views (slices that alias their parent).
//
// Type display strings are kept compatible with the paper's tables, e.g.
// "[DistSpace][perBinSpace] v3", "8*real", "[binSpace] int(32)".
package types

import (
	"fmt"
	"strings"
)

// Kind enumerates type constructors.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Void
	Int
	Real
	Bool
	String
	Tuple
	Record
	Class
	Range
	Domain
	Array
	LocaleK
	Nil
	Atomic
)

// Type is the interface implemented by all MiniChapel types.
type Type interface {
	Kind() Kind
	// String returns the user-facing display name.
	String() string
	// Size returns the abstract storage size in bytes, used by the
	// HPCToolkit-like baseline's ">= 4 KiB" allocation filter and by the
	// address-space layout of the VM.
	Size() int64
}

// ---------------------------------------------------------------- scalars

// Basic is a primitive scalar type.
type Basic struct {
	K     Kind
	Width int    // display width, e.g. int(32); 0 means default (64)
	Name  string // display name
}

func (b *Basic) Kind() Kind { return b.K }
func (b *Basic) String() string {
	if b.Width != 0 {
		return fmt.Sprintf("%s(%d)", b.Name, b.Width)
	}
	return b.Name
}

// Size returns the storage size of the scalar.
func (b *Basic) Size() int64 {
	switch b.K {
	case Bool:
		return 1
	case String:
		return 16
	case Void:
		return 0
	}
	if b.Width != 0 {
		return int64(b.Width / 8)
	}
	return 8
}

// Predeclared scalar types.
var (
	VoidType   = &Basic{K: Void, Name: "void"}
	IntType    = &Basic{K: Int, Name: "int"}
	Int32Type  = &Basic{K: Int, Width: 32, Name: "int"}
	RealType   = &Basic{K: Real, Name: "real"}
	Real32Type = &Basic{K: Real, Width: 32, Name: "real"}
	BoolType   = &Basic{K: Bool, Name: "bool"}
	StringType = &Basic{K: String, Name: "string"}
	LocaleType = &Basic{K: LocaleK, Name: "locale"}
	NilType    = &Basic{K: Nil, Name: "nil"}
)

// ----------------------------------------------------------------- tuples

// TupleType is a homogeneous tuple k*T (Chapel's 3*real, 8*real...).
type TupleType struct {
	Count int
	Elem  Type
	// Alias, when non-empty, is a user 'type' alias name (e.g. "v3") used
	// for display, matching the paper's Table II.
	Alias string
}

func (t *TupleType) Kind() Kind { return Tuple }
func (t *TupleType) String() string {
	if t.Alias != "" {
		return t.Alias
	}
	return fmt.Sprintf("%d*%s", t.Count, t.Elem)
}

// Size is the summed element size.
func (t *TupleType) Size() int64 { return int64(t.Count) * t.Elem.Size() }

// ---------------------------------------------------------------- records

// Field is a record/class field.
type Field struct {
	Name string
	Type Type
	// Offset is the abstract byte offset within the record.
	Offset int64
}

// RecordType is a record (value semantics) or class (reference semantics).
type RecordType struct {
	Name    string
	IsClass bool
	Fields  []Field
	size    int64
}

func (r *RecordType) Kind() Kind {
	if r.IsClass {
		return Class
	}
	return Record
}

func (r *RecordType) String() string { return r.Name }

// Size lays out fields on first use and returns the total size. A class
// handle itself is pointer-sized; InstanceSize gives the allocation size.
func (r *RecordType) Size() int64 {
	if r.IsClass {
		return 8
	}
	return r.InstanceSize()
}

// InstanceSize returns the size of the record payload (heap block size for
// classes).
func (r *RecordType) InstanceSize() int64 {
	if r.size == 0 {
		var off int64
		for i := range r.Fields {
			r.Fields[i].Offset = off
			off += r.Fields[i].Type.Size()
		}
		r.size = off
	}
	return r.size
}

// FieldIndex returns the index of the named field, or -1.
func (r *RecordType) FieldIndex(name string) int {
	for i := range r.Fields {
		if r.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// ----------------------------------------------------------------- ranges

// RangeType is the type of lo..hi expressions.
type RangeType struct{}

func (*RangeType) Kind() Kind     { return Range }
func (*RangeType) String() string { return "range" }

// Size is the descriptor size (lo, hi, stride).
func (*RangeType) Size() int64 { return 24 }

// RangeVal is the predeclared range type instance.
var RangeVal = &RangeType{}

// ---------------------------------------------------------------- domains

// DomainType is a rectangular domain of the given rank, optionally
// block-distributed across locales.
type DomainType struct {
	Rank int
	// Dist is the distribution name ("Block") or empty for local.
	Dist string
}

func (d *DomainType) Kind() Kind { return Domain }
func (d *DomainType) String() string {
	if d.Dist != "" {
		return "domain dmapped " + d.Dist
	}
	return "domain"
}

// Size is the descriptor size: rank * (lo,hi,stride).
func (d *DomainType) Size() int64 { return int64(d.Rank) * 24 }

// ----------------------------------------------------------------- arrays

// ArrayType is an array over a domain. DomName records the *name* of the
// domain expression it was declared over (e.g. "DistSpace"), which the
// data-centric views print: "[DistSpace][perBinSpace] v3" is an array over
// DistSpace whose elements are arrays over perBinSpace of v3.
type ArrayType struct {
	Rank    int
	Elem    Type
	DomName string
}

func (a *ArrayType) Kind() Kind { return Array }

func (a *ArrayType) String() string {
	name := a.DomName
	if name == "" {
		name = strings.Repeat("D", 1)
	}
	return fmt.Sprintf("[%s] %s", name, a.Elem)
}

// Size is the descriptor size; element storage is heap-allocated and
// accounted per-instance by the VM.
func (a *ArrayType) Size() int64 { return 48 }

// ---------------------------------------------------------------- atomics

// AtomicType is `atomic T` — a scalar with atomic read/write/add/sub/
// fetchAdd operations (Chapel's atomic variables).
type AtomicType struct {
	Elem Type
}

func (a *AtomicType) Kind() Kind     { return Atomic }
func (a *AtomicType) String() string { return "atomic " + a.Elem.String() }

// Size matches the element's storage.
func (a *AtomicType) Size() int64 { return a.Elem.Size() }

// ------------------------------------------------------------- procedures

// ParamInfo describes a formal parameter for signature display.
type ParamInfo struct {
	Name  string
	Type  Type
	IsRef bool // true when writes inside the callee alias the actual
}

// ProcType is a procedure signature.
type ProcType struct {
	Params []ParamInfo
	Ret    Type
}

func (p *ProcType) Kind() Kind { return Invalid }
func (p *ProcType) String() string {
	var b strings.Builder
	b.WriteString("proc(")
	for i, q := range p.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if q.IsRef {
			b.WriteString("ref ")
		}
		b.WriteString(q.Type.String())
	}
	b.WriteString(")")
	if p.Ret != nil && p.Ret.Kind() != Void {
		b.WriteString(": " + p.Ret.String())
	}
	return b.String()
}

// Size of a procedure value (not storable).
func (p *ProcType) Size() int64 { return 8 }

// ------------------------------------------------------------- predicates

// IsNumeric reports whether t is int or real.
func IsNumeric(t Type) bool {
	k := t.Kind()
	return k == Int || k == Real
}

// IsBigValue reports whether assignment of t copies bulk data (arrays,
// records, wide tuples) — relevant to the cost model.
func IsBigValue(t Type) bool {
	switch tt := t.(type) {
	case *ArrayType:
		return true
	case *RecordType:
		return !tt.IsClass
	case *TupleType:
		return tt.Count > 2
	}
	return false
}

// Identical reports structural type identity (alias names ignored).
func Identical(a, b Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	switch x := a.(type) {
	case *Basic:
		y, ok := b.(*Basic)
		// Widths are display-only: int(32) and int are interchangeable.
		return ok && x.K == y.K
	case *TupleType:
		y, ok := b.(*TupleType)
		return ok && x.Count == y.Count && Identical(x.Elem, y.Elem)
	case *RecordType:
		y, ok := b.(*RecordType)
		return ok && x == y
	case *RangeType:
		_, ok := b.(*RangeType)
		return ok
	case *DomainType:
		y, ok := b.(*DomainType)
		return ok && x.Rank == y.Rank
	case *ArrayType:
		y, ok := b.(*ArrayType)
		return ok && x.Rank == y.Rank && Identical(x.Elem, y.Elem)
	case *AtomicType:
		y, ok := b.(*AtomicType)
		return ok && Identical(x.Elem, y.Elem)
	}
	return false
}

// AssignableTo reports whether a value of type src can be assigned to dst,
// allowing int→real widening as Chapel does.
func AssignableTo(src, dst Type) bool {
	if Identical(src, dst) {
		return true
	}
	if src.Kind() == Int && dst.Kind() == Real {
		return true
	}
	if src.Kind() == Nil && dst.Kind() == Class {
		return true
	}
	// Tuple of ints assigns to tuple of reals elementwise.
	if s, ok := src.(*TupleType); ok {
		if d, ok := dst.(*TupleType); ok {
			return s.Count == d.Count && AssignableTo(s.Elem, d.Elem)
		}
	}
	// Scalar broadcasts to tuple or array (Chapel promotion on assignment).
	if d, ok := dst.(*TupleType); ok && IsNumeric(src) {
		return AssignableTo(src, d.Elem)
	}
	if d, ok := dst.(*ArrayType); ok {
		if IsNumeric(src) && IsNumeric(d.Elem) {
			return true
		}
		if s, ok := src.(*ArrayType); ok {
			return s.Rank == d.Rank && AssignableTo(s.Elem, d.Elem)
		}
		return AssignableTo(src, d.Elem)
	}
	return false
}

// Common returns the unified numeric type of two operands (real wins).
func Common(a, b Type) Type {
	if a.Kind() == Real || b.Kind() == Real {
		return RealType
	}
	return IntType
}
