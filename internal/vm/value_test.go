package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestRangeSize(t *testing.T) {
	cases := []struct {
		r    RangeVal
		want int64
	}{
		{RangeVal{0, 9, 1}, 10},
		{RangeVal{5, 5, 1}, 1},
		{RangeVal{5, 4, 1}, 0},
		{RangeVal{0, 9, 2}, 5},
		{RangeVal{0, 10, 2}, 6},
		{RangeVal{-3, 3, 1}, 7},
	}
	for _, c := range cases {
		if got := c.r.Size(); got != c.want {
			t.Errorf("%v.Size() = %d, want %d", c.r, got, c.want)
		}
	}
}

// Property: Linear/Unlinear round-trip for every index of any small domain.
func TestDomainLinearRoundTrip(t *testing.T) {
	check := func(lo1, n1, lo2, n2, lo3, n3 int8) bool {
		d := DomainVal{Rank: 3}
		dims := [][2]int64{
			{int64(lo1), int64(n1%5) + 1},
			{int64(lo2), int64(n2%5) + 1},
			{int64(lo3), int64(n3%5) + 1},
		}
		for i, dm := range dims {
			d.Dims[i] = RangeVal{Lo: dm[0], Hi: dm[0] + dm[1] - 1, Stride: 1}
		}
		idx := make([]int64, 3)
		back := make([]int64, 3)
		for p := int64(0); p < d.Size(); p++ {
			d.Unlinear(p, idx)
			if !d.Contains(idx) {
				return false
			}
			if d.Linear(idx) != p {
				return false
			}
			copy(back, idx)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Linear is a bijection (all positions distinct) over rank-2
// domains.
func TestDomainLinearBijection(t *testing.T) {
	check := func(lo1, lo2 int8, n1, n2 uint8) bool {
		d := DomainVal{Rank: 2}
		d.Dims[0] = RangeVal{Lo: int64(lo1), Hi: int64(lo1) + int64(n1%6), Stride: 1}
		d.Dims[1] = RangeVal{Lo: int64(lo2), Hi: int64(lo2) + int64(n2%6), Stride: 1}
		seen := make(map[int64]bool)
		for i := d.Dims[0].Lo; i <= d.Dims[0].Hi; i++ {
			for j := d.Dims[1].Lo; j <= d.Dims[1].Hi; j++ {
				p := d.Linear([]int64{i, j})
				if p < 0 || p >= d.Size() || seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return int64(len(seen)) == d.Size()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDomainExpandTranslate(t *testing.T) {
	d := DomainVal{Rank: 1, Dims: [3]RangeVal{{0, 9, 1}}}
	e := d.Expand(2)
	if e.Dims[0].Lo != -2 || e.Dims[0].Hi != 11 {
		t.Errorf("expand: %v", e)
	}
	if d.Dims[0].Lo != 0 {
		t.Error("expand mutated the receiver")
	}
	tr := d.Translate(5)
	if tr.Dims[0].Lo != 5 || tr.Dims[0].Hi != 14 {
		t.Errorf("translate: %v", tr)
	}
	if e.Size() != 14 || tr.Size() != 10 {
		t.Errorf("sizes: %d %d", e.Size(), tr.Size())
	}
}

func TestValueCopyIsDeep(t *testing.T) {
	v := Value{K: KTuple, Elems: []Value{
		IntVal(1),
		{K: KTuple, Elems: []Value{RealVal(2.5), RealVal(3.5)}},
	}}
	c := v.Copy()
	c.Elems[0].I = 99
	c.Elems[1].Elems[0].F = -1
	if v.Elems[0].I != 1 || v.Elems[1].Elems[0].F != 2.5 {
		t.Error("Copy is shallow")
	}
}

func TestValueCopySharesArrays(t *testing.T) {
	arr := &ArrayVal{Dom: DomainVal{Rank: 1, Dims: [3]RangeVal{{0, 3, 1}}}}
	arr.Layout = arr.Dom
	arr.Data = make([]Value, 4)
	v := ArrVal(arr)
	c := v.Copy()
	if c.Arr() != arr {
		t.Error("array descriptors must be shared by Copy (reference semantics)")
	}
}

func TestFlatSize(t *testing.T) {
	if IntVal(1).FlatSize() != 1 {
		t.Error("scalar flat size")
	}
	tup := Value{K: KTuple, Elems: []Value{IntVal(1), IntVal(2), IntVal(3)}}
	if tup.FlatSize() != 3 {
		t.Error("tuple flat size")
	}
	nested := Value{K: KTuple, Elems: []Value{tup, tup}}
	if nested.FlatSize() != 6 {
		t.Error("nested flat size")
	}
}

func TestDerefChains(t *testing.T) {
	target := IntVal(42)
	r1 := MakeRef(&target)
	r2 := Value{K: KRef, p: &r1}
	if r2.Deref().I != 42 {
		t.Error("deref chain broken")
	}
	// MakeRef collapses ref-of-ref.
	mr := MakeRef(&r1)
	if mr.p.(*Value) != &target {
		t.Error("MakeRef must collapse to the ultimate cell")
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"42":     IntVal(42),
		"1.5":    RealVal(1.5),
		"2.0":    RealVal(2),
		"true":   BoolVal(true),
		"(1, 2)": {K: KTuple, Elems: []Value{IntVal(1), IntVal(2)}},
		"nil":    {K: KNil},
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestArrayCellOutOfLayout(t *testing.T) {
	arr := &ArrayVal{
		Dom:    DomainVal{Rank: 1, Dims: [3]RangeVal{{0, 3, 1}}},
		Layout: DomainVal{Rank: 1, Dims: [3]RangeVal{{0, 3, 1}}},
		Data:   make([]Value, 4),
		ElemT:  types.RealType,
	}
	if arr.Cell([]int64{4}) != nil {
		t.Error("out-of-layout cell must be nil")
	}
	if arr.Cell([]int64{2}) == nil {
		t.Error("in-layout cell must resolve")
	}
}

func TestSliceArrayViews(t *testing.T) {
	owner := &ArrayVal{
		Dom:    DomainVal{Rank: 1, Dims: [3]RangeVal{{0, 9, 1}}},
		Layout: DomainVal{Rank: 1, Dims: [3]RangeVal{{0, 9, 1}}},
		Data:   make([]Value, 10),
		ElemT:  types.RealType,
	}
	view, errs := sliceArray(owner, RngVal(RangeVal{2, 5, 1}))
	if errs != "" {
		t.Fatal(errs)
	}
	if view.Owner() != owner {
		t.Error("view must chain to owner")
	}
	// Writing through the view hits the owner's storage.
	*view.Cell([]int64{3}) = RealVal(7)
	if owner.Data[3].F != 7 {
		t.Error("view write did not alias owner storage")
	}
	// Sub-slicing a view still chains to the root owner.
	sub, _ := sliceArray(view, RngVal(RangeVal{3, 4, 1}))
	if sub.Owner() != owner {
		t.Error("sub-view owner chain broken")
	}
	if _, e := sliceArray(owner, IntVal(3)); e == "" {
		t.Error("slicing by a scalar must fail")
	}
}

func TestCostModelScale(t *testing.T) {
	c := Costs()
	if c.scale(false, 100) != 100 {
		t.Error("no scaling without fast")
	}
	s := c.scale(true, 100)
	if s >= 100 || s == 0 {
		t.Errorf("fast scale = %d", s)
	}
	if c.scale(true, 1) == 0 {
		t.Error("fast scale must not zero out nonzero costs")
	}
}
