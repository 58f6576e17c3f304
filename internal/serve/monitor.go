package serve

import (
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/vm"
)

// monitor is the streaming wrapper the server interposes between the VM
// and the sampler (blame.Config.Wrap). It delegates every callback to
// the real sampler, so the final profile is untouched, and additionally
//
//   - emits coarse progress events (cycles executed, samples collected)
//     every progressEvery cycles, and
//   - every rankEvery samples, runs the post-mortem processor over the
//     samples up to that count and emits the current top-k data-centric
//     blame ranking — the "incremental blame ranks" a streaming client
//     renders while the run is still going.
//
// The VM is a single-goroutine simulator, so all callbacks arrive on
// one goroutine and the monitor needs no locking of its own; emit must
// be non-blocking (the session fan-out drops events on slow consumers).
type monitor struct {
	prog     *ir.Program
	analysis *core.Analysis
	smp      *sampler.Sampler
	emit     func(Event)

	cycles       uint64
	nextProgress uint64
	nextRank     int
}

// progressEvery is the cycle interval between progress events: large
// enough to be negligible next to instruction dispatch, small enough
// for tens of events on the multi-second simulated runs.
const progressEvery = 10_000_000

// rankEvery is the sample interval between incremental rankings, and
// rankTop how many rows one carries.
const (
	rankEvery = 2000
	rankTop   = 5
)

func newMonitor(prog *ir.Program, analysis *core.Analysis, smp *sampler.Sampler, emit func(Event)) *monitor {
	return &monitor{
		prog: prog, analysis: analysis, smp: smp, emit: emit,
		nextProgress: progressEvery, nextRank: rankEvery,
	}
}

func (m *monitor) tick(cycles uint64) {
	m.cycles += cycles
	if m.cycles >= m.nextProgress {
		m.emit(Event{Type: "progress", Samples: len(m.smp.Samples), Cycles: m.cycles})
		for m.nextProgress <= m.cycles {
			m.nextProgress += progressEvery
		}
	}
	if n := len(m.smp.Samples); n >= m.nextRank {
		// One instruction can take several samples, so n may overshoot
		// the boundary; rank exactly the samples up to it.
		k := n - n%rankEvery
		m.snapshotRanks(k)
		m.nextRank = k + rankEvery
	}
}

// snapshotRanks runs the post-mortem pipeline over the first n samples
// and emits the interim top-k. It runs on the VM goroutine, so the
// sampler's slices and spawn map are quiescent while Process reads them,
// and Process keeps nothing of either.
func (m *monitor) snapshotRanks(n int) {
	prof := postmortem.New(m.prog, m.analysis, m.smp.Spawns).Process(m.smp.Samples[:n], m.smp.Threshold(), vm.Stats{})
	rows := prof.DataCentric
	if len(rows) > rankTop {
		rows = rows[:rankTop]
	}
	ranks := make([]RankRow, len(rows))
	for i, r := range rows {
		ranks[i] = RankRow{Name: r.Name, Samples: r.Samples, Blame: r.Blame}
	}
	m.emit(Event{Type: "ranks", Samples: n, Cycles: m.cycles, Ranks: ranks})
}

func (m *monitor) Exec(cycles uint64, t *vm.Task, in *ir.Instr, acc *vm.ArrayVal) {
	m.smp.Exec(cycles, t, in, acc)
	m.tick(cycles)
}

func (m *monitor) Spin(cycles uint64, t *vm.Task, fn *ir.Func) {
	m.smp.Spin(cycles, t, fn)
	m.tick(cycles)
}

func (m *monitor) PreSpawn(parent *vm.Task, tag uint64, site *ir.Instr) {
	m.smp.PreSpawn(parent, tag, site)
}

func (m *monitor) Alloc(addr uint64, size int64, v *ir.Var, site *ir.Instr) {
	m.smp.Alloc(addr, size, v, site)
}

func (m *monitor) Comm(bytes int64, from, to int, owner *ir.Var, t *vm.Task, in *ir.Instr) {
	m.smp.Comm(bytes, from, to, owner, t, in)
}

func (m *monitor) CommAgg(ev comm.Event, t *vm.Task) {
	m.smp.CommAgg(ev, t)
}
