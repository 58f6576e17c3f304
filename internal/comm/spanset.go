package comm

// SpanSet is a sorted set of disjoint inclusive element intervals —
// the elements one locale holds of one array: a site's gathered
// residency or a replicated array's copy.
type SpanSet struct {
	spans [][2]int64
}

// Add inserts [lo, hi], merging overlapping/adjacent spans.
func (s *SpanSet) Add(lo, hi int64) {
	if hi < lo {
		return
	}
	out := s.spans[:0:0]
	placed := false
	for _, sp := range s.spans {
		if sp[1] < lo-1 {
			out = append(out, sp)
			continue
		}
		if sp[0] > hi+1 {
			if !placed {
				out = append(out, [2]int64{lo, hi})
				placed = true
			}
			out = append(out, sp)
			continue
		}
		if sp[0] < lo {
			lo = sp[0]
		}
		if sp[1] > hi {
			hi = sp[1]
		}
	}
	if !placed {
		out = append(out, [2]int64{lo, hi})
	}
	s.spans = out
}

// Remove deletes [lo, hi] from the set (a write on another locale
// invalidating cached copies).
func (s *SpanSet) Remove(lo, hi int64) {
	if hi < lo {
		return
	}
	out := s.spans[:0:0]
	for _, sp := range s.spans {
		if sp[1] < lo || sp[0] > hi {
			out = append(out, sp)
			continue
		}
		if sp[0] < lo {
			out = append(out, [2]int64{sp[0], lo - 1})
		}
		if sp[1] > hi {
			out = append(out, [2]int64{hi + 1, sp[1]})
		}
	}
	s.spans = out
}

// Contains reports whether e is resident.
func (s *SpanSet) Contains(e int64) bool {
	for _, sp := range s.spans {
		if e >= sp[0] && e <= sp[1] {
			return true
		}
	}
	return false
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
