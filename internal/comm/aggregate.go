package comm

// prefetchHalo implements the halo fast path: on the first miss of a
// sweep at a statically halo-classified site, fetch every remote
// non-resident element of the ghost window [sweepLo-k, sweepHi+k] in one
// message per contiguous same-home run. Interior elements of the window
// are home-local and cost nothing; what remains is the block-edge ghost
// region the static finding predicted.
func (r *Runtime) prefetchHalo(a Access, site Site) {
	k := site.Off
	if k < 0 {
		k = -k
	}
	lo := a.SweepLo - k
	hi := a.SweepHi + k
	if lo < 0 {
		lo = 0
	}
	if hi > a.LayoutLen-1 {
		hi = a.LayoutLen - 1
	}
	c := r.caches[a.Loc]
	runStart := int64(-1)
	runHome := -1
	emit := func(end int64) {
		if runStart < 0 {
			return
		}
		n := end - runStart
		r.send(Event{Kind: EvPrefetch, Var: a.Var, From: runHome, To: a.Loc, Bytes: n * a.Bytes, Elems: n})
		runStart, runHome = -1, -1
	}
	for e := lo; e <= hi; e++ {
		home := a.Homes.HomeOf(e)
		if home == a.Loc || c.has(a.Arr, e) {
			emit(e)
			continue
		}
		if runStart >= 0 && home != runHome {
			emit(e)
		}
		if runStart < 0 {
			runStart, runHome = e, home
		}
		c.insert(a.Var, a.Arr, e, home, a.Bytes, false, a.Task, r)
	}
	emit(hi + 1)
}

// streamFetch coalesces a sequential (or statically strided) remote read
// run: starting at the missed element, fetch up to runBlock same-home,
// non-resident elements spaced step apart in one message.
func (r *Runtime) streamFetch(a Access, step int64) {
	if step <= 0 {
		step = 1
	}
	c := r.caches[a.Loc]
	var n int64
	for e := a.Elem; e < a.LayoutLen && n < runBlock; e += step {
		if a.Homes.HomeOf(e) != a.Home || c.has(a.Arr, e) {
			break
		}
		c.insert(a.Var, a.Arr, e, a.Home, a.Bytes, false, a.Task, r)
		n++
	}
	if n == 0 {
		// The target itself was unfetchable (shouldn't happen): charge a
		// plain fetch so the access is never free.
		r.send(Event{Kind: EvFetch, Var: a.Var, From: a.Home, To: a.Loc, Bytes: a.Bytes, Elems: 1})
		return
	}
	r.send(Event{Kind: EvStream, Var: a.Var, From: a.Home, To: a.Loc, Bytes: n * a.Bytes, Elems: n})
}
