package sampler_test

import (
	"testing"

	"repro/internal/sampler"
)

// A bounded ring buffer overruns on a sample-heavy run: the buffer holds
// exactly its capacity, the overflow is counted, and the retained prefix
// is identical to the unbounded run's.
func TestRingBufferOverrunDropsAndCounts(t *testing.T) {
	full, _ := runSampled(t, parSrc, 509)
	if len(full.Samples) < 40 {
		t.Fatalf("fixture too small: %d samples", len(full.Samples))
	}
	capN := len(full.Samples) / 2
	bounded, _ := runSampled(t, parSrc, 509, sampler.WithRingBuffer(capN))
	if len(bounded.Samples) != capN {
		t.Errorf("bounded buffer holds %d samples, want %d", len(bounded.Samples), capN)
	}
	if bounded.Dropped == 0 {
		t.Error("overrun not counted")
	}
	if got, want := int(bounded.Dropped)+len(bounded.Samples), len(full.Samples); got != want {
		t.Errorf("kept+dropped = %d, want %d (no sample unaccounted)", got, want)
	}
	for i := range bounded.Samples {
		if bounded.Samples[i].Addr != full.Samples[i].Addr {
			t.Fatalf("sample %d diverged from unbounded run", i)
		}
	}
}
