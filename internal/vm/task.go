package vm

import (
	"repro/internal/ir"
)

// doSpawn implements the tasking layer: forall/coforall/begin/cobegin/on.
// It mirrors the instrumented Chapel tasking layer of paper §IV.B: a
// unique spawn tag is minted, the monitoring process records the parent's
// pre-spawn stack under that tag, worker tasks carry the tag, and blocking
// constructs leave the parent spinning at a join barrier.
func (m *VM) doSpawn(t *Task, in *ir.Instr) {
	sp := in.Spawn
	m.nextTag++
	tag := m.nextTag
	if !m.noLis {
		m.lis.PreSpawn(t, tag, in)
	}

	// Evaluate captures as references into the parent frame.
	captures := make([]Value, len(in.Args))
	for i, av := range in.Args {
		if av == m.hereVar {
			captures[i] = Value{K: KLocale, I: int64(t.Locale)}
		} else {
			captures[i] = makeRef(m.cellOf(t, av))
		}
	}

	switch sp.Kind {
	case ir.SpawnForall, ir.SpawnCoforall:
		m.spawnLoop(t, in, tag, captures)
	case ir.SpawnBegin:
		child := m.newTask(t, tag, t.Locale)
		m.pushFrame(child, in.Callee, captures, nil)
		// begin joins the innermost sync group, if any.
		if n := len(t.syncStack); n > 0 {
			g := t.syncStack[n-1]
			g.pending++
			child.join = g
		}
		m.enqueue(child, t)
		m.rtCharge(t, m.cost(costs.SpawnPerTask), "chpl_task_spawn")
	case ir.SpawnCobegin:
		bodies := append([]*ir.Func{in.Callee}, sp.Extra...)
		g := &joinGroup{pending: len(bodies), waiter: t, barrierSite: in}
		for i, bf := range bodies {
			child := m.newTask(t, tag, t.Locale)
			bodyArgs := captures
			if i > 0 {
				extra := sp.ExtraArgs[i-1]
				bodyArgs = make([]Value, len(extra))
				for k, av := range extra {
					bodyArgs[k] = makeRef(m.cellOf(t, av))
				}
			}
			m.pushFrame(child, bf, bodyArgs, nil)
			child.join = g
			m.enqueue(child, t)
		}
		t.blockedOn = g
		m.rtCharge(t, uint64(len(bodies))*m.cost(costs.SpawnPerTask), "chpl_task_spawn")
	case ir.SpawnOn:
		locale := t.Locale
		if sp.Iter != nil {
			lv := m.readVal(t, sp.Iter)
			if lv.K == KLocale {
				locale = int(lv.I)
			}
			if lv.K == KUnk {
				m.fail(t, in, "on-statement with unknown target locale at %v", in.Pos)
				return
			}
		}
		if locale < 0 || locale >= m.Cfg.NumLocales {
			m.fail(t, in, "on-statement targets locale %d of %d", locale, m.Cfg.NumLocales)
			return
		}
		// The launch message always pays SpawnPerTask + CommLatency (even
		// same-locale `on`, matching Chapel's active-message path). Fault
		// handling applies only to genuinely remote launches: a dead target
		// degrades to spawn-locale execution, a faulty link adds latency.
		launch := costs.SpawnPerTask + costs.CommLatency
		if locale != t.Locale && m.fault != nil {
			if m.fault.LocaleDead(locale) {
				m.fault.NoteFallback()
				locale = t.Locale
			} else if out := m.fault.Send(t.Locale, locale); out.ExtraLat > 0 {
				launch += uint64(out.ExtraLat) * costs.CommLatency
			}
		}
		child := m.newTask(t, tag, locale)
		m.pushFrame(child, in.Callee, captures, nil)
		g := &joinGroup{pending: 1, waiter: t, barrierSite: in}
		child.join = g
		m.enqueue(child, t)
		t.blockedOn = g
		m.rtCharge(t, m.cost(launch), "chpl_task_spawn")
	}
}

// spawnLoop creates the worker tasks of a forall/coforall.
func (m *VM) spawnLoop(t *Task, in *ir.Instr, tag uint64, captures []Value) {
	sp := in.Spawn
	space, ok := m.iterSpace(t, in)
	if !ok {
		return
	}
	total := space.Size()
	if total <= 0 {
		return
	}
	if space.Dist && m.Cfg.NumLocales > 1 && !m.Cfg.NoOwnerComputes {
		m.spawnLoopOwner(t, in, tag, captures, space, total)
		return
	}
	var numTasks int64
	if sp.Kind == ir.SpawnCoforall {
		numTasks = total
	} else {
		numTasks = int64(m.Cfg.NumCores)
		if numTasks > total {
			numTasks = total
		}
	}

	g := &joinGroup{pending: int(numTasks), waiter: t, barrierSite: in}
	chunk := total / numTasks
	rem := total % numTasks
	var pos int64
	for k := int64(0); k < numTasks; k++ {
		n := chunk
		if k < rem {
			n++
		}
		child := m.newTask(t, tag, t.Locale)
		child.iter = &iterState{
			body:     in.Callee,
			captures: captures,
			space:    space,
			pos:      pos,
			end:      pos + n,
			start:    pos,
			site:     in,
		}
		child.join = g
		pos += n
		m.enqueue(child, t)
		// Zippered iterator construction per task per iterand.
		if nf := len(sp.Followers); nf > 0 {
			m.rtCharge(t, uint64(nf+1)*m.cost(costs.ZipSetup), "chpl_task_spawn")
		}
	}
	t.blockedOn = g
	m.rtCharge(t, uint64(numTasks)*m.cost(costs.SpawnPerTask), "chpl_task_spawn")
	m.Stats.TasksSpawned += uint64(numTasks)
}

// spawnLoopOwner creates the worker tasks of a forall/coforall over a
// Block-dmapped iteration space: owner-computes scheduling. The linear
// space is partitioned by the owning locale of each dim-0 block (the
// same decomposition ArrayVal.ElemHome uses), NumCores
// workers (or one per index, for coforall) are minted per locale, and
// each chunk is enqueued on its owner's cores. Remote children cost an
// active-message launch (SpawnPerTask + CommLatency), mirroring `on`.
func (m *VM) spawnLoopOwner(t *Task, in *ir.Instr, tag uint64, captures []Value, space DomainVal, total int64) {
	sp := in.Spawn
	n0 := space.Dims[0].Size()
	rowSize := total / n0 // linear positions per dim-0 index
	nl := int64(m.Cfg.NumLocales)

	g := &joinGroup{waiter: t, barrierSite: in}
	var spawned int64
	var spawnCycles uint64
	for loc := int64(0); loc < nl; loc++ {
		// Locale loc owns dim-0 positions [ceil(loc*n0/nl), ceil((loc+1)*n0/nl)):
		// exactly the set where ElemHome's floor(pos*nl/n0) == loc.
		lo := (loc*n0 + nl - 1) / nl
		hi := ((loc+1)*n0 + nl - 1) / nl
		cnt := (hi - lo) * rowSize
		if cnt <= 0 {
			continue
		}
		var numTasks int64
		if sp.Kind == ir.SpawnCoforall {
			numTasks = cnt
		} else {
			numTasks = int64(m.Cfg.NumCores)
			if numTasks > cnt {
				numTasks = cnt
			}
		}
		// Graceful degradation: chunks owned by a failed locale run on the
		// spawner's locale instead (paying remote element access for them,
		// but completing with correct output).
		target := int(loc)
		if target != t.Locale && m.fault.LocaleDead(target) {
			target = t.Locale
			for k := int64(0); k < numTasks; k++ {
				m.fault.NoteFallback()
			}
		}
		chunk := cnt / numTasks
		rem := cnt % numTasks
		pos := lo * rowSize
		for k := int64(0); k < numTasks; k++ {
			n := chunk
			if k < rem {
				n++
			}
			child := m.newTask(t, tag, target)
			child.iter = &iterState{
				body:     in.Callee,
				captures: captures,
				space:    space,
				pos:      pos,
				end:      pos + n,
				start:    pos,
				site:     in,
			}
			child.join = g
			g.pending++
			pos += n
			m.enqueue(child, t)
			if nf := len(sp.Followers); nf > 0 {
				m.rtCharge(t, uint64(nf+1)*m.cost(costs.ZipSetup), "chpl_task_spawn")
			}
		}
		launch := costs.SpawnPerTask
		if target != t.Locale {
			launch += costs.CommLatency
			m.Stats.RemoteSpawns += uint64(numTasks)
			if m.fault != nil {
				// One launch message per remote worker runs through the
				// injector; lost/delayed launches add modeled latency.
				var extra uint64
				for k := int64(0); k < numTasks; k++ {
					if out := m.fault.Send(t.Locale, target); out.ExtraLat > 0 {
						extra += uint64(out.ExtraLat) * costs.CommLatency
					}
				}
				spawnCycles += m.cost(extra)
			}
		}
		spawnCycles += uint64(numTasks) * m.cost(launch)
		spawned += numTasks
		m.Stats.OwnerChunks += uint64(numTasks)
	}
	t.blockedOn = g
	m.rtCharge(t, spawnCycles, "chpl_task_spawn")
	m.Stats.TasksSpawned += uint64(spawned)
}

// iterSpace derives the iteration domain of a spawn from its Iter operand.
func (m *VM) iterSpace(t *Task, in *ir.Instr) (DomainVal, bool) {
	sp := in.Spawn
	if sp.Iter == nil {
		return DomainVal{}, false
	}
	v := m.readVal(t, sp.Iter)
	switch v.K {
	case KRange:
		return DomainVal{Rank: 1, Dims: [3]RangeVal{v.Rng}}, true
	case KDomain:
		return v.Dom, true
	case KArray:
		return v.Arr.Dom, true
	case KUnk:
		m.fail(t, in, "forall over unknown iteration space at %v", in.Pos)
		return DomainVal{}, false
	}
	m.fail(t, in, "cannot iterate over %s", v)
	return DomainVal{}, false
}

// newTask mints a worker task.
func (m *VM) newTask(parent *Task, tag uint64, locale int) *Task {
	m.nextTaskID++
	return &Task{
		ID:     m.nextTaskID,
		Tag:    tag,
		Parent: parent,
		Locale: locale,
	}
}

// enqueue places a task on a core of its locale (round-robin) and models
// the worker thread that accepts it: if that core's clock is behind the
// spawner's, the gap was idle spin in the scheduler.
func (m *VM) enqueue(child *Task, parent *Task) {
	base := child.Locale * m.Cfg.NumCores
	core := base + m.spawnRR%m.Cfg.NumCores
	m.spawnRR++
	child.Core = core
	// The worker thread idling on this core since its previous task
	// spun in the scheduler until now; attribute that spin to the stale
	// context (its old spawn tag), as a real monitor would observe.
	spinCtx := child
	if prev := m.cores[core].lastTask; prev != nil {
		spinCtx = prev
	}
	m.spinTo(spinCtx, m.coreOf(parent).clock)
	m.cores[core].queue = append(m.cores[core].queue, child)
}

// startIterCall pushes the outlined body frame for the task's next index.
// Index and argument scratch live in the iterState and are reused across
// iterations (pushFrame copies the values into the frame).
func (m *VM) startIterCall(t *Task) {
	it := t.iter
	idx := it.idxBuf[:it.space.Rank]
	it.space.Unlinear(it.pos, idx)
	it.pos++

	body := it.body
	if need := it.space.Rank + len(it.captures); cap(it.argBuf) < need {
		it.argBuf = make([]Value, 0, need)
	}
	args := it.argBuf[:0]
	for i := 0; i < len(idx) && i < len(body.Params); i++ {
		args = append(args, IntVal(idx[i]))
	}
	args = append(args, it.captures...)
	m.rtCharge(t, m.cost(costs.IterPerCall+costs.CallOverhead), "chpl_task_callTaskFunction")
	na := m.pushFrame(t, body, args, nil)
	na.CallSite = it.site
}
