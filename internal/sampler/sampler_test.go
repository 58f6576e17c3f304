package sampler_test

import (
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/sampler"
	"repro/internal/vm"
)

func runSampled(t *testing.T, src string, threshold uint64, opts ...sampler.Option) (*sampler.Sampler, vm.Stats) {
	t.Helper()
	_, s, stats := runProgram(t, src, threshold, opts...)
	return s, stats
}

// runProgram is runSampled that also returns the compiled program, for
// tests that resolve recorded addresses.
func runProgram(t *testing.T, src string, threshold uint64, opts ...sampler.Option) (*ir.Program, *sampler.Sampler, vm.Stats) {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sampler.New(res.Prog, threshold, opts...)
	cfg := vm.DefaultConfig()
	cfg.Listener = s
	cfg.MaxCycles = 200_000_000
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Prog, s, stats
}

const parSrc = `
config const n = 200;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  for rep in 1..10 {
    forall i in D { A[i] = A[i] + sqrt(i * 1.0); }
  }
}
`

func TestSampleCountMatchesCycles(t *testing.T) {
	s, stats := runSampled(t, parSrc, 1009)
	want := stats.TotalCycles / 1009
	got := uint64(len(s.Samples))
	// Spin segments can cross thresholds mid-chunk; exact within 1%.
	diff := int64(got) - int64(want)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(want/100+2) {
		t.Errorf("samples = %d, cycles/threshold = %d", got, want)
	}
}

func TestSamplesCarryStacksAndTags(t *testing.T) {
	s, _ := runSampled(t, parSrc, 509)
	var worker, withStack int
	for _, smp := range s.Samples {
		if smp.Tag != 0 {
			worker++
		}
		if len(smp.Stack) > 0 {
			withStack++
		}
	}
	if worker == 0 {
		t.Error("no worker samples recorded")
	}
	if withStack == 0 {
		t.Error("no stack walks recorded")
	}
}

func TestSpawnRecordsHavePreSpawnStacks(t *testing.T) {
	prog, s, _ := runProgram(t, parSrc, 509)
	if len(s.Spawns) != 10 {
		t.Fatalf("spawn records = %d, want 10 (one per forall)", len(s.Spawns))
	}
	for tag, rec := range s.Spawns {
		if len(rec.Stack) == 0 {
			t.Errorf("spawn %d has no pre-spawn stack", tag)
		}
		if in := prog.InstrAt(rec.Stack[0]); in == nil || in.Op != ir.OpSpawn {
			t.Errorf("spawn %d: innermost frame %d of stack %v is not a spawn instruction", tag, rec.Stack[0], rec.Stack)
		}
	}
}

func TestAllocRecords(t *testing.T) {
	s, _ := runSampled(t, parSrc, 100000)
	found := false
	for _, a := range s.Allocs {
		if a.VarName == "A" && a.Size == 200*8 {
			found = true
		}
	}
	if !found {
		t.Errorf("allocation of A (1600 bytes) not recorded: %+v", s.Allocs)
	}
}

func TestDataAddressesOnMemorySamples(t *testing.T) {
	s, _ := runSampled(t, parSrc, 211)
	withAddr := 0
	for _, smp := range s.Samples {
		if smp.DataAddr != 0 {
			withAddr++
			if !slices.ContainsFunc(s.Allocs, func(a sampler.AllocRecord) bool {
				return smp.DataAddr >= a.Addr && smp.DataAddr < a.Addr+uint64(a.Size)
			}) {
				t.Fatalf("data address %#x lies in no recorded allocation", smp.DataAddr)
			}
		}
	}
	if withAddr == 0 {
		t.Error("no samples carry data addresses")
	}
}

func TestRuntimeSpinSamples(t *testing.T) {
	s, _ := runSampled(t, parSrc, 509)
	spin := 0
	for _, smp := range s.Samples {
		if smp.RuntimeFunc == "__sched_yield" {
			spin++
		}
	}
	if spin == 0 {
		t.Error("no spin samples attributed to __sched_yield")
	}
}

func TestSkidShiftsAttribution(t *testing.T) {
	s0, _ := runSampled(t, parSrc, 1009)
	s2, _ := runSampled(t, parSrc, 1009, sampler.WithSkid(3))
	if len(s0.Samples) == 0 || len(s2.Samples) == 0 {
		t.Fatal("no samples")
	}
	// Same workload, same threshold: totals comparable; addresses shift.
	shifted := 0
	n := len(s0.Samples)
	if len(s2.Samples) < n {
		n = len(s2.Samples)
	}
	for i := 0; i < n; i++ {
		if s0.Samples[i].Addr != s2.Samples[i].Addr {
			shifted++
		}
	}
	if shifted == 0 {
		t.Error("skid did not shift any sample addresses")
	}
}

func TestDataSetBytesGrowsWithSamples(t *testing.T) {
	s1, _ := runSampled(t, parSrc, 4099)
	s2, _ := runSampled(t, parSrc, 509)
	if s2.DataSetBytes() <= s1.DataSetBytes() {
		t.Errorf("dataset bytes should grow with sample count: %d vs %d",
			s2.DataSetBytes(), s1.DataSetBytes())
	}
}

func TestStackWalkCountsSpawns(t *testing.T) {
	s, _ := runSampled(t, parSrc, 100000000)
	// Nearly no samples; stack walks still happen per spawn.
	if s.StackWalks < 10 {
		t.Errorf("stack walks = %d, want >= 10 (one per spawn)", s.StackWalks)
	}
}
