package analyze

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/comm"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/token"
	"repro/internal/types"
)

// CommPass classifies array accesses over `dmapped Block` domains inside
// loops as local (owner-computes: the index IS the loop index and the loop
// iterates the array's own distribution), halo (index ± small constant —
// block-edge neighbor exchange, including wavefront sweeps over a
// translated domain), coalescable (contiguous range sweeps and strided or
// blocked index expressions whose remote elements form fixed-shape runs),
// or fine-grained remote (anything whose owner cannot be proven local).
// Per-element remote gets/puts in hot loops are the pattern Rolinger et
// al. show dominates PGAS performance; the paper's multi-locale extension
// measures them dynamically, this pass predicts them statically — and
// CommPlan exports the same classification in machine-consumable form for
// the internal/comm aggregation runtime.
type CommPass struct{}

// Name is the pass name its findings carry.
func (CommPass) Name() string { return "comm-pattern" }

// commClass is one access's classification.
type commClass int

const (
	commLocal commClass = iota
	commHalo
	commCoalesce
	commRemote
	commIrregular
)

// accessPat is the detailed result of classifying one access: the
// diagnostic class plus the runtime-consumable pattern (plan site kind,
// constant offset for halo, stride for strided).
type accessPat struct {
	cls    commClass
	kind   comm.SiteClass
	off    int64
	stride int64
}

// commSite is one classified Block-distributed access; RunFunc turns
// these into diagnostics and CommPlan into runtime plan entries.
type commSite struct {
	in      *ir.Instr
	name    string // display name of the accessed array
	pat     accessPat
	shift   int64   // iteration-space translation (wavefront), 0 otherwise
	arrDom  *ir.Var // the array's distribution domain
	aligned bool    // classified within an aligned or sweeping context
	rank1   bool    // single index argument (plan-eligible)
}

// commScan classifies every distributed-array access in f once; the
// diagnostic pass and the plan exporter both consume the result.
func (ctx *Context) commScan(f *ir.Func) (sites []commSite, where string, summaryPos source.Pos) {
	sp, isBody := ctx.ParallelBody(f)
	var bodyTi *taintInfo
	var bodyDom *ir.Var
	var bodyShift int64
	bodySweep := false
	where = "loop"
	if isBody {
		bodyTi = ctx.bodyTaint(f)
		spawner := f.OutlinedFrom
		if sp.Block != nil {
			spawner = sp.Block.Func
		}
		bodyDom, bodyShift = ctx.iterSpaceDomain(spawner, sp.Spawn.Iter)
		if it := sp.Spawn.Iter; bodyDom == nil && it != nil && it.Type != nil && it.Type.Kind() == types.Range {
			// forall over a plain range: the body sweeps a contiguous
			// index window whose alignment with any distribution is
			// statically unknown.
			bodySweep = true
		}
		where = sp.Spawn.Kind.String()
		summaryPos = sp.Pos
	} else {
		summaryPos = f.Pos
	}

	// Serial counted loops whose iteration space resolves to a domain can
	// align accesses just like a forall over it.
	li := ctx.Loops(f)
	type alignedLoop struct {
		l     *cfg.Loop
		dom   *ir.Var
		shift int64
		ti    *taintInfo
	}
	var aligned []alignedLoop
	for _, l := range li.Loops {
		iv, iter := ctx.serialLoopIter(f, l)
		if iv == nil {
			continue
		}
		dom, shift := ctx.iterSpaceDomain(f, iter)
		if dom == nil {
			continue
		}
		aligned = append(aligned, alignedLoop{l: l, dom: dom, shift: shift, ti: loopTaint(f, iv)})
	}

	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			var base *ir.Var
			var args []*ir.Var
			switch in.Op {
			case ir.OpIndex, ir.OpRefElem:
				base, args = in.A, in.Args
			case ir.OpIndexStore:
				base, args = in.Dst, in.Args
			default:
				continue
			}
			root := ctx.rootBase(f, base)
			arrDom, dist := ctx.DistArray(root)
			if !dist {
				continue
			}
			// Pick the best-aligned loop context for this access: the
			// parallel body itself when it iterates the array's
			// distribution (possibly translated — a wavefront) or a plain
			// range, else the innermost enclosing serial loop over the
			// distribution; with no aligned context, any loop context at
			// all makes the access fine-grained remote, and straight-line
			// code (runs once) is ignored.
			site := commSite{in: in, arrDom: arrDom, rank1: len(args) == 1}
			site.pat = accessPat{cls: commRemote}
			if isBody && bodyDom != nil && bodyDom == arrDom {
				site.pat = ctx.classifyAccess(f, bodyTi, args, bodyShift, false)
				site.shift = bodyShift
				site.aligned = true
			} else if isBody && bodySweep {
				site.pat = ctx.classifyAccess(f, bodyTi, args, 0, true)
				site.aligned = true
			} else {
				var best *alignedLoop
				for i := range aligned {
					al := &aligned[i]
					if al.dom != arrDom || !al.l.Body[b.ID] {
						continue
					}
					if best == nil || len(al.l.Body) < len(best.l.Body) {
						best = al
					}
				}
				if best != nil {
					site.pat = ctx.classifyAccess(f, best.ti, args, best.shift, false)
					site.shift = best.shift
					site.aligned = true
				} else if isBody && len(args) == 1 && ctx.indirectIndex(f, bodyTi, args[0]) {
					// Data-dependent subscript inside a parallel body whose
					// immediate loop context aligns with no distribution
					// (e.g. a CSR inner loop over rowptr-bounded ranges):
					// the irregular class still applies — the inspector
					// keys on the index set, not on alignment.
					site.pat = accessPat{cls: commIrregular, kind: comm.SiteIrregular}
				} else if !ctx.HotAt(f, in) {
					continue
				}
			}
			name := ctx.DisplayName(root)
			if name == "" {
				name = root.Name
			}
			site.name = name
			sites = append(sites, site)
		}
	}
	return sites, where, summaryPos
}

// RunFunc implements funcPass.
func (CommPass) RunFunc(ctx *Context, f *ir.Func) []Diag {
	sites, where, summaryPos := ctx.commScan(f)

	var out []Diag
	counts := [5]int{}
	for _, s := range sites {
		counts[s.pat.cls]++
		in, name := s.in, s.name
		switch s.pat.cls {
		case commHalo:
			if s.shift != 0 {
				out = append(out, Diag{
					Pass: CommPass{}.Name(), Severity: Note, Pos: in.Pos, Fn: f, Var: name,
					Message: fmt.Sprintf("wavefront access to Block-distributed '%s': the %s iterates '%s' translated by %+d, "+
						"so every owner-aligned index lands %d element(s) into a neighbor's block", name, where,
						domDisplayName(ctx, s.arrDom), s.shift, abs64(s.pat.off)),
					FixHint: "bulk-exchange the shifted window into a local buffer once per sweep instead of per-element gets",
				})
				continue
			}
			out = append(out, Diag{
				Pass: CommPass{}.Name(), Severity: Note, Pos: in.Pos, Fn: f, Var: name,
				Message: fmt.Sprintf("halo access to Block-distributed '%s': the index is the loop index plus a constant offset, "+
					"crossing into a neighbor's block at partition edges", name),
				FixHint: "bulk-exchange boundary elements into a local halo buffer once per sweep instead of per-element gets",
			})
		case commCoalesce:
			switch s.pat.kind {
			case comm.SiteStrided:
				out = append(out, Diag{
					Pass: CommPass{}.Name(), Severity: Note, Pos: in.Pos, Fn: f, Var: name,
					Message: fmt.Sprintf("strided access to Block-distributed '%s': the index is the loop index times %d, so "+
						"remote elements form fixed-stride runs inside each owner's block", name, s.pat.stride),
					FixHint: "coalesce each same-owner run into one strided bulk transfer (-comm-aggregate models this)",
				})
			case comm.SiteBlocked:
				out = append(out, Diag{
					Pass: CommPass{}.Name(), Severity: Note, Pos: in.Pos, Fn: f, Var: name,
					Message: fmt.Sprintf("blocked access to Block-distributed '%s': the index is the loop index divided by a "+
						"constant, so consecutive iterations revisit contiguous chunks of each owner's block", name),
					FixHint: "fetch each contiguous chunk once and reuse it (-comm-aggregate's cache models this)",
				})
			default: // contiguous range sweep
				out = append(out, Diag{
					Pass: CommPass{}.Name(), Severity: Note, Pos: in.Pos, Fn: f, Var: name,
					Message: fmt.Sprintf("sweep access to Block-distributed '%s': the %s sweeps a contiguous index window, so "+
						"remote elements form one run per block boundary crossed", name, where),
					FixHint: "exchange the window into a local buffer once per sweep, or enable aggregation (-comm-aggregate)",
				})
			}
		case commRemote:
			msg := fmt.Sprintf("fine-grained remote access to Block-distributed '%s': the enclosing %s does not iterate "+
				"'%s''s distribution, so each element access may target another locale", name, where, name)
			if s.aligned {
				msg = fmt.Sprintf("fine-grained remote access to Block-distributed '%s': the index is not derived from the "+
					"loop index, so the accessed element's owner is unrelated to the executing locale", name)
			}
			out = append(out, Diag{
				Pass: CommPass{}.Name(), Severity: Warning, Pos: in.Pos, Fn: f, Var: name,
				Message: msg,
				FixHint: fmt.Sprintf("iterate the distributed domain itself (forall i in %s) so owner-computes applies, "+
					"or aggregate the remote elements into one bulk transfer", domDisplayName(ctx, s.arrDom)),
			})
		case commIrregular:
			out = append(out, Diag{
				Pass: CommPass{}.Name(), Severity: Warning, Pos: in.Pos, Fn: f, Var: name,
				Message: fmt.Sprintf("irregular access to Block-distributed '%s': the index is loaded from another array "+
					"(data-dependent subscript), so the element's owner is unknowable statically — but the index set "+
					"per sweep is not", name),
				FixHint: "inspect the remote index set once and gather it in one bulk transfer per owner (-comm-inspector models this)",
			})
		}
	}
	if len(sites) > 0 {
		// The irregular clause renders only when present so runs without
		// data-dependent subscripts keep the historical (golden-pinned)
		// summary text.
		irr := ""
		if counts[commIrregular] > 0 {
			irr = fmt.Sprintf(", %d irregular (data-dependent)", counts[commIrregular])
		}
		out = append(out, Diag{
			Pass: CommPass{}.Name(), Severity: Note, Pos: summaryPos, Fn: f,
			Message: fmt.Sprintf("communication summary for this %s: %d local (owner-computes), %d halo, %d coalescable "+
				"(sweep/strided/blocked), %d fine-grained remote distributed-array accesses%s", where,
				counts[commLocal], counts[commHalo], counts[commCoalesce], counts[commRemote], irr),
		})
	}
	return out
}

// CommPlan exports the pass's classification as a machine-consumable
// aggregation plan for the internal/comm runtime: every plan-eligible
// rank-1 access site is keyed by instruction address, carrying the
// pattern the runtime should exploit plus the identity (variable name and
// source position) of the static finding that predicted it.
func CommPlan(prog *ir.Program) *comm.Plan {
	return NewContext(prog).CommPlan()
}

// CommPlan is the context-reusing form of the package-level CommPlan.
func (ctx *Context) CommPlan() *comm.Plan {
	plan := comm.NewPlan()
	for _, f := range ctx.Prog.Funcs {
		if f.IsRuntime {
			continue
		}
		sites, _, _ := ctx.commScan(f)
		for _, s := range sites {
			// Irregular sites are plan-eligible without an aligned context:
			// the inspector keys on the recorded index set, not on any
			// static alignment between loop and distribution.
			if !s.rank1 || s.pat.kind == comm.SiteNone ||
				(!s.aligned && s.pat.kind != comm.SiteIrregular) {
				continue
			}
			// Owner-local accesses enter the plan as SiteOwner: the VM's
			// owner-computes forall scheduling runs each chunk on its
			// owning locale, so these sites should see zero remote
			// traffic — the VM counts violations (Stats.OwnerSiteRemote),
			// and the runtime falls back to a halo-offset-0 window when a
			// sweep is not owner-aligned (e.g. a single-locale run).
			plan.Sites[s.in.Addr] = comm.Site{
				Class:  s.pat.kind,
				Off:    s.pat.off,
				Stride: s.pat.stride,
				Var:    s.name,
				Pos:    ctx.Prog.FileSet.Position(s.in.Pos),
			}
		}
	}
	return plan
}

// classifyAccess decides one access's pattern within an aligned or
// sweeping loop context from its index arguments. shift is the constant
// iteration-space translation (forall over D.translate(k)); sweep marks a
// range-driven parallel body whose alignment with the distribution is
// statically unknown.
func (ctx *Context) classifyAccess(f *ir.Func, ti *taintInfo, args []*ir.Var, shift int64, sweep bool) accessPat {
	if len(args) == 1 {
		a := args[0]
		off, isOff := int64(0), ti.direct[a]
		if !isOff {
			if c, ok := ctx.offsetOf(f, ti, a); ok {
				off, isOff = c, true
			}
		}
		if isOff {
			net := off + shift
			if net == 0 {
				if sweep {
					return accessPat{cls: commCoalesce, kind: comm.SiteHalo}
				}
				return accessPat{cls: commLocal, kind: comm.SiteOwner}
			}
			return accessPat{cls: commHalo, kind: comm.SiteHalo, off: net}
		}
		if c, ok := ctx.scaleOf(f, ti, a, token.STAR); ok && c > 1 {
			return accessPat{cls: commCoalesce, kind: comm.SiteStrided, stride: c}
		}
		if c, ok := ctx.scaleOf(f, ti, a, token.SLASH); ok && c > 1 {
			// The block divisor rides along in stride so the static cost
			// engine can reconstruct the compressed access window.
			return accessPat{cls: commCoalesce, kind: comm.SiteBlocked, stride: c}
		}
		if ctx.indirectIndex(f, ti, a) {
			return accessPat{cls: commIrregular, kind: comm.SiteIrregular}
		}
		return accessPat{cls: commRemote}
	}
	// Rank > 1: joint local/halo/remote classification; no plan pattern
	// (the aggregation runtime's fast paths are rank-1).
	cls := commLocal
	for _, a := range args {
		if ti.direct[a] {
			continue
		}
		if _, ok := ctx.offsetOf(f, ti, a); ok {
			cls = commHalo
			continue
		}
		return accessPat{cls: commRemote}
	}
	if cls == commLocal {
		if shift != 0 {
			cls = commHalo
		} else if sweep {
			cls = commCoalesce
		}
	}
	return accessPat{cls: cls}
}

// iterSpaceDomain resolves the domain an iteration source stands for —
// the domain var itself (including `arr.domain` query temps and constant
// `D.translate(k)` shifts, whose net shift is returned alongside), the
// allocation domain when iterating an array, or nil for ranges and
// unknowns. owner is the function the iteration variable lives in — the
// spawning function for a parallel body's Iter.
func (ctx *Context) iterSpaceDomain(owner *ir.Func, iter *ir.Var) (*ir.Var, int64) {
	if iter == nil || iter.Type == nil {
		return nil, 0
	}
	rep := ctx.Analysis.AliasClass
	switch iter.Type.Kind() {
	case types.Domain:
		if owner != nil {
			if in := singleDef(ctx.defs(owner), iter); in != nil {
				switch {
				case in.Op == ir.OpQuery && in.Method == "domain":
					if d, ok := ctx.arrayDom[rep(in.A)]; ok {
						return d, 0
					}
				case in.Op == ir.OpDomMethod && in.Method == "translate" && len(in.Args) == 1:
					if c, ok := ctx.constInt(owner, in.Args[0]); ok {
						if d, s := ctx.iterSpaceDomain(owner, in.A); d != nil {
							return d, s + c
						}
					}
				}
			}
		}
		return rep(iter), 0
	case types.Array:
		if d, ok := ctx.arrayDom[rep(iter)]; ok {
			return d, 0
		}
	}
	return nil, 0
}

func domDisplayName(ctx *Context, d *ir.Var) string {
	if d == nil {
		return "D"
	}
	if n := ctx.DisplayName(d); n != "" {
		return n
	}
	return d.Name
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
