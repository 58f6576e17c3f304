package comm

import (
	"math/rand"
	"testing"
)

// TestSpanSetMatchesBitmap: after every Add and Remove of a random
// interval, the set holds exactly the elements a bitmap reference
// holds, as sorted, disjoint spans with no two adjacent, and Missing
// returns exactly the absent runs.
func TestSpanSetMatchesBitmap(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	var s SpanSet
	var ref [n]bool
	for op := 0; op < 5000; op++ {
		lo := rng.Int63n(n)
		hi := lo + rng.Int63n(8) - 1 // hi < lo now and then: a no-op
		if hi >= n {
			hi = n - 1
		}
		add := rng.Intn(2) == 0
		if add {
			s.Add(lo, hi)
		} else {
			s.Remove(lo, hi)
		}
		for e := lo; e <= hi; e++ {
			ref[e] = add
		}
		for e := int64(0); e < n; e++ {
			if s.Contains(e) != ref[e] {
				t.Fatalf("op %d (add=%v [%d, %d]): Contains(%d) = %v, want %v; spans %v", op, add, lo, hi, e, !ref[e], ref[e], s.spans)
			}
		}
		for i, sp := range s.spans {
			if sp[0] > sp[1] || i > 0 && s.spans[i-1][1]+1 >= sp[0] {
				t.Fatalf("op %d: spans %v not sorted, disjoint and merged", op, s.spans)
			}
		}
		var want [][2]int64
		for e := int64(0); e < n; e++ {
			if ref[e] {
				continue
			}
			if k := len(want); k > 0 && want[k-1][1] == e-1 {
				want[k-1][1] = e
			} else {
				want = append(want, [2]int64{e, e})
			}
		}
		got := s.Missing(0, n-1)
		if len(got) != len(want) {
			t.Fatalf("op %d: Missing = %v, want %v", op, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("op %d: Missing = %v, want %v", op, got, want)
			}
		}
	}
}
