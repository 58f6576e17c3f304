// Package cfg provides control-flow analyses over the IR: dominator and
// post-dominator trees and control-dependence sets. The paper's implicit
// blame transfer (§IV.A) is computed from control dependence: "all
// variables within control dependent basic blocks have a relationship to
// the implicit variables responsible for the control flow".
package cfg

import (
	"sort"

	"repro/internal/ir"
)

// DomTree is a dominator (or post-dominator) tree over one function.
type DomTree struct {
	fn *ir.Func
	// idom[b.ID] is the immediate dominator block ID (-1 for the root and
	// unreachable blocks).
	idom []int
	// children[b.ID] lists dominated block IDs.
	children [][]int
	root     int
}

// Idom returns the immediate dominator of b, or nil. Blocks with IDs
// outside the tree (malformed or from another function) have none.
func (t *DomTree) Idom(b *ir.Block) *ir.Block {
	if b == nil || b.ID < 0 || b.ID >= len(t.idom) {
		return nil
	}
	d := t.idom[b.ID]
	if d < 0 || d >= len(t.fn.Blocks) {
		return nil
	}
	return t.fn.Blocks[d]
}

// Dominates reports whether a dominates b (reflexive). Malformed or
// unreachable block IDs never dominate and are dominated by nothing but
// themselves; the walk bounds-checks every step so a corrupted idom chain
// cannot index out of range.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if a == nil || b == nil {
		return false
	}
	if a.ID == b.ID {
		return true
	}
	for x := b.ID; x >= 0 && x < len(t.idom); {
		if x == a.ID {
			return true
		}
		next := t.idom[x]
		if next == x {
			return false // self-loop guard on corrupted trees
		}
		x = next
	}
	return false
}

// Dominators computes the dominator tree using the iterative algorithm of
// Cooper, Harvey & Kennedy over a reverse-postorder numbering.
func Dominators(f *ir.Func) *DomTree {
	return buildDomTree(f, false)
}

// PostDominators computes the post-dominator tree. Blocks that cannot
// reach an exit (infinite loops) are handled by treating every Ret block
// as a root merged into a virtual exit.
func PostDominators(f *ir.Func) *DomTree {
	return buildDomTree(f, true)
}

// buildDomTree computes (post-)dominators. For post-dominators we run on
// the reverse CFG with a virtual exit joining all Ret blocks.
func buildDomTree(f *ir.Func, post bool) *DomTree {
	n := len(f.Blocks)
	t := &DomTree{fn: f, idom: make([]int, n), children: make([][]int, n)}
	for i := range t.idom {
		t.idom[i] = -1
	}
	if n == 0 {
		return t
	}

	// virtual root = -2 sentinel; real roots attach to it with idom -1.
	succs := func(b *ir.Block) []*ir.Block {
		if post {
			return b.Preds
		}
		return b.Succs
	}
	preds := func(b *ir.Block) []*ir.Block {
		if post {
			return b.Succs
		}
		return b.Preds
	}
	var roots []*ir.Block
	if post {
		for _, b := range f.Blocks {
			if term := b.Terminator(); term != nil && term.Op == ir.OpRet {
				roots = append(roots, b)
			}
		}
		if len(roots) == 0 {
			// No returns (shouldn't happen after irgen); fall back to the
			// last block.
			roots = append(roots, f.Blocks[n-1])
		}
	} else {
		roots = append(roots, f.Blocks[0])
	}

	// Reverse postorder from the roots.
	order := make([]*ir.Block, 0, n)
	visited := make([]bool, n)
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		visited[b.ID] = true
		for _, s := range succs(b) {
			if !visited[s.ID] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	for _, r := range roots {
		if !visited[r.ID] {
			dfs(r)
		}
	}
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b.ID] = i
	}

	idom := make([]int, n) // by block ID; -1 undefined
	for i := range idom {
		idom[i] = -1
	}
	isRoot := make([]bool, n)
	for _, r := range roots {
		isRoot[r.ID] = true
		idom[r.ID] = r.ID // roots self-dominate during iteration
	}

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if isRoot[b.ID] {
				continue
			}
			newIdom := -1
			for _, p := range preds(b) {
				if rpoNum[p.ID] < 0 || idom[p.ID] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p.ID
				} else {
					newIdom = intersect(newIdom, p.ID)
				}
			}
			if newIdom >= 0 && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}

	for i := range idom {
		if isRoot[i] {
			t.idom[i] = -1
		} else {
			t.idom[i] = idom[i]
		}
	}
	for i, d := range t.idom {
		if d >= 0 {
			t.children[d] = append(t.children[d], i)
		}
	}
	if len(roots) > 0 {
		t.root = roots[0].ID
	}
	return t
}

// ControlDeps computes, for every block, the set of branch instructions it
// is control-dependent on (classic Ferrante/Ottenstein/Warren via the
// post-dominance frontier). The result maps block ID → branch instrs.
func ControlDeps(f *ir.Func) map[int][]*ir.Instr {
	pdom := PostDominators(f)
	deps := make(map[int][]*ir.Instr)
	// For each edge (a→b) where b does not post-dominate a, walk up the
	// post-dominator tree from b to pdom(a), marking dependence on a's
	// branch.
	for _, a := range f.Blocks {
		term := a.Terminator()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		for _, b := range a.Succs {
			if pdom.Dominates(b, a) {
				continue
			}
			// Walk b up to (exclusive) ipdom(a).
			stop := -1
			if ip := pdom.Idom(a); ip != nil {
				stop = ip.ID
			}
			for x := b; x != nil && x.ID != stop; {
				deps[x.ID] = appendUniqueInstr(deps[x.ID], term)
				ip := pdom.Idom(x)
				if ip == nil {
					break
				}
				x = ip
			}
		}
	}
	return deps
}

func appendUniqueInstr(list []*ir.Instr, in *ir.Instr) []*ir.Instr {
	for _, x := range list {
		if x == in {
			return list
		}
	}
	return append(list, in)
}

// ReversePostorder returns the blocks of f in reverse postorder from entry.
func ReversePostorder(f *ir.Func) []*ir.Block {
	n := len(f.Blocks)
	visited := make([]bool, n)
	var order []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		visited[b.ID] = true
		for _, s := range b.Succs {
			if !visited[s.ID] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	if n > 0 {
		dfs(f.Blocks[0])
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Loop is one natural loop: a header block plus the body blocks that can
// reach a back edge (latch → header) without leaving through the header.
type Loop struct {
	Head   *ir.Block
	Body   map[int]bool // block IDs, header included
	Parent *Loop        // innermost enclosing loop, if any
	Depth  int          // 1 for outermost
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Body[b.ID] }

// NaturalLoops finds the natural loops of f using dominators: an edge
// latch → head is a back edge when head dominates latch; the loop body is
// the set of blocks reaching the latch without passing through the head.
// Loops sharing a header are merged. The result is sorted outermost
// first, and Parent/Depth link the nesting forest. Both the abstract
// interpreter (internal/absint) and the static cost engine consume this.
func NaturalLoops(f *ir.Func) []*Loop {
	dom := Dominators(f)
	byHead := make(map[int]*Loop)
	var heads []int
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			l := byHead[s.ID]
			if l == nil {
				l = &Loop{Head: s, Body: map[int]bool{s.ID: true}}
				byHead[s.ID] = l
				heads = append(heads, s.ID)
			}
			// Walk predecessors back from the latch, stopping at the head.
			stack := []*ir.Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Body[x.ID] {
					continue
				}
				l.Body[x.ID] = true
				for _, p := range x.Preds {
					stack = append(stack, p)
				}
			}
		}
	}
	sort.Ints(heads)
	loops := make([]*Loop, 0, len(heads))
	for _, h := range heads {
		loops = append(loops, byHead[h])
	}
	// Nesting: the innermost enclosing loop is the smallest strict
	// superset containing the header.
	for _, l := range loops {
		for _, o := range loops {
			if o == l || !o.Body[l.Head.ID] || len(o.Body) <= len(l.Body) {
				continue
			}
			if l.Parent == nil || len(o.Body) < len(l.Parent.Body) {
				l.Parent = o
			}
		}
	}
	for _, l := range loops {
		for p := l.Parent; p != nil; p = p.Parent {
			l.Depth++
		}
		l.Depth++
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth < loops[j].Depth
		}
		return loops[i].Head.ID < loops[j].Head.ID
	})
	return loops
}

// LoopHeads returns the set of loop-header block IDs of f — the widening
// points of the abstract interpreter.
func LoopHeads(f *ir.Func) map[int]bool {
	heads := make(map[int]bool)
	dom := Dominators(f)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if dom.Dominates(s, b) {
				heads[s.ID] = true
			}
		}
	}
	return heads
}
