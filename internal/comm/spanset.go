package comm

import "slices"

// SpanSet is a sorted set of disjoint inclusive element intervals —
// the elements one locale holds of one array: a site's gathered
// residency or a replicated array's copy.
type SpanSet struct {
	spans [][2]int64
}

// Add inserts [lo, hi], merging overlapping/adjacent spans. It edits
// the set in place, allocating only when the set outgrows its array.
func (s *SpanSet) Add(lo, hi int64) {
	if hi < lo {
		return
	}
	i := s.search(lo - 1)
	j := i
	for ; j < len(s.spans) && s.spans[j][0] <= hi+1; j++ {
		lo = min(lo, s.spans[j][0])
		hi = max(hi, s.spans[j][1])
	}
	s.spans = slices.Replace(s.spans, i, j, [2]int64{lo, hi})
}

// Remove deletes [lo, hi] from the set (a write on another locale
// invalidating cached copies). Like Add it edits in place, and a
// removal that hits no span changes nothing.
func (s *SpanSet) Remove(lo, hi int64) {
	if hi < lo {
		return
	}
	i := s.search(lo)
	j := i
	for j < len(s.spans) && s.spans[j][0] <= hi {
		j++
	}
	if i == j {
		return
	}
	var keep [2][2]int64
	n := 0
	if first := s.spans[i]; first[0] < lo {
		keep[n] = [2]int64{first[0], lo - 1}
		n++
	}
	if last := s.spans[j-1]; last[1] > hi {
		keep[n] = [2]int64{hi + 1, last[1]}
		n++
	}
	s.spans = slices.Replace(s.spans, i, j, keep[:n]...)
}

// Contains reports whether e is resident.
func (s *SpanSet) Contains(e int64) bool {
	i := s.search(e)
	return i < len(s.spans) && s.spans[i][0] <= e
}

// search returns the index of the first span ending at or after e.
func (s *SpanSet) search(e int64) int {
	i, _ := slices.BinarySearchFunc(s.spans, e, func(sp [2]int64, e int64) int {
		if sp[1] < e {
			return -1
		}
		return 1
	})
	return i
}

// Missing returns the sub-intervals of [lo, hi] not in the set.
func (s *SpanSet) Missing(lo, hi int64) [][2]int64 {
	if hi < lo {
		return nil
	}
	var out [][2]int64
	cur := lo
	for _, sp := range s.spans {
		if sp[1] < cur {
			continue
		}
		if sp[0] > hi {
			break
		}
		if sp[0] > cur {
			out = append(out, [2]int64{cur, sp[0] - 1})
		}
		if sp[1]+1 > cur {
			cur = sp[1] + 1
		}
		if cur > hi {
			return out
		}
	}
	if cur <= hi {
		out = append(out, [2]int64{cur, hi})
	}
	return out
}
