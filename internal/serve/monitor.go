package serve

import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/vm"
)

// monitor is the streaming wrapper the server interposes between the VM
// and the sampler (blame.Config.Wrap). It embeds the real sampler, so
// every callback reaches it and the final profile is untouched, and on
// each Exec and Spin additionally
//
//   - emits coarse progress events (cycles executed, samples collected)
//     every progressSamples samples' worth of cycles, and
//   - every rankEvery samples, runs the post-mortem processor over the
//     samples up to that count and emits the current top-k data-centric
//     blame ranking — the "incremental blame ranks" a streaming client
//     renders while the run is still going.
//
// The VM is a single-goroutine simulator, so all callbacks arrive on
// one goroutine and the monitor needs no locking of its own; emit must
// be non-blocking (the session fan-out drops events on slow consumers).
type monitor struct {
	*sampler.Sampler
	prog     *ir.Program
	analysis *core.Analysis
	emit     func(Event)

	cycles        uint64
	progressEvery uint64
	nextProgress  uint64
	nextRank      int
}

// rankEvery is the sample interval between incremental rankings, and
// rankTop how many rows one carries. A progress event goes out every
// progressSamples samples' worth of cycles (progressSamples times the
// sampling threshold), so a run sends about four between rankings
// whatever its length: a calibrated run of ~4000 samples sends ~8.
const (
	rankEvery       = 2000
	rankTop         = 5
	progressSamples = rankEvery / 4
)

func newMonitor(prog *ir.Program, analysis *core.Analysis, smp *sampler.Sampler, emit func(Event)) *monitor {
	every := progressSamples * smp.Threshold()
	return &monitor{
		Sampler: smp, prog: prog, analysis: analysis, emit: emit,
		progressEvery: every, nextProgress: every, nextRank: rankEvery,
	}
}

func (m *monitor) tick(cycles uint64) {
	m.cycles += cycles
	if m.cycles >= m.nextProgress {
		m.emit(Event{Type: "progress", Samples: len(m.Samples), Cycles: m.cycles})
		for m.nextProgress <= m.cycles {
			m.nextProgress += m.progressEvery
		}
	}
	if n := len(m.Samples); n >= m.nextRank {
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
	prof := postmortem.New(m.prog, m.analysis, m.Spawns).Process(m.Samples[:n], m.Threshold(), vm.Stats{})
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
	m.Sampler.Exec(cycles, t, in, acc)
	m.tick(cycles)
}

func (m *monitor) Spin(cycles uint64, t *vm.Task, fn *ir.Func) {
	m.Sampler.Spin(cycles, t, fn)
	m.tick(cycles)
}
