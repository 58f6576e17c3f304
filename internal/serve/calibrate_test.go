package serve

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blame"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/vm"
)

// resetCalibrations empties the process-wide calibration memo.
func resetCalibrations() {
	calibrations.mu.Lock()
	clear(calibrations.entries)
	calibrations.mu.Unlock()
}

func memoized(k calibrationKey) bool {
	calibrations.mu.Lock()
	defer calibrations.mu.Unlock()
	_, ok := calibrations.entries[k]
	return ok
}

func compileBench(t *testing.T, name string) *ir.Program {
	t.Helper()
	src, progName, err := ResolveBench(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.SourceCached(progName, src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog
}

// calibrationKeyExcludes lists the vm.Config fields the calibration key
// leaves out, each with the reason it cannot change a memoized calibration.
var calibrationKeyExcludes = map[string]string{
	"Stdout":   "calibration output is discarded",
	"Listener": "a run with a listener is not memoized",
	"Fault":    "Profile attaches the injector after calibrating; a run with one is not memoized",
	"Cancel":   "a cancelled run returns an error, and errors are not memoized",
}

// mutateLeaf changes v to a different value of its type, reporting false
// for kinds it does not know how to change.
func mutateLeaf(v reflect.Value) bool {
	if !v.CanSet() {
		return false
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String || v.Type().Elem().Kind() != reflect.String {
			return false
		}
		m := reflect.MakeMap(v.Type())
		for it := v.MapRange(); it.Next(); {
			m.SetMapIndex(it.Key(), it.Value())
		}
		m.SetMapIndex(reflect.ValueOf("calibration_probe"), reflect.ValueOf("1"))
		v.Set(m)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	default:
		return false
	}
	return true
}

// TestCalibrationKeyCoversConfig walks vm.Config: changing any field (any
// field of a struct-typed one) must change the calibration key, unless
// the field is on calibrationKeyExcludes with a reason. A new vm.Config
// field fails here until it is classified.
func TestCalibrationKeyCoversConfig(t *testing.T) {
	prog := compileBench(t, "fig1")
	base := (&Request{}).VMConfig(prog)
	baseKey := newCalibrationKey(prog, &base)
	ct := reflect.TypeOf(vm.Config{})
	for name, reason := range calibrationKeyExcludes {
		if _, ok := ct.FieldByName(name); !ok || reason == "" {
			t.Errorf("exclusion %q: no such vm.Config field, or no reason given", name)
		}
	}
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if _, ok := calibrationKeyExcludes[f.Name]; ok {
			continue
		}
		leaves := [][]int{{i}}
		if f.Type.Kind() == reflect.Struct {
			leaves = nil
			for j := 0; j < f.Type.NumField(); j++ {
				leaves = append(leaves, []int{i, j})
			}
		}
		for _, idx := range leaves {
			cfg := base
			leaf := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			name := f.Name
			if len(idx) > 1 {
				name += "." + f.Type.Field(idx[1]).Name
			}
			if !mutateLeaf(leaf) {
				t.Errorf("vm.Config.%s: unclassified field of kind %s; key it or exclude it", name, leaf.Kind())
				continue
			}
			if newCalibrationKey(prog, &cfg) == baseKey {
				t.Errorf("vm.Config.%s is not in the calibration key; add it to calibrationKey or to calibrationKeyExcludes with a reason", name)
			}
		}
	}
	// Config overrides are keyed by content, not by map identity or order.
	a, b := base, base
	a.Configs = map[string]string{"n": "3", "m": "4"}
	b.Configs = map[string]string{"m": "4", "n": "3"}
	if newCalibrationKey(prog, &a) != newCalibrationKey(prog, &b) {
		t.Error("equal Configs maps give different keys")
	}
}

// TestCalibrationSharedPerRunShape: requests that differ only in how the
// run is rendered share one calibration run; requests whose run shape
// differs each calibrate.
func TestCalibrationSharedPerRunShape(t *testing.T) {
	resetCalibrations()
	runs := func(reqs ...Request) int64 {
		t.Helper()
		before := calibrationRuns.Load()
		for _, r := range reqs {
			if err := r.Normalize(); err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(&r, nil); err != nil {
				t.Fatalf("%+v: %v", r, err)
			}
		}
		return calibrationRuns.Load() - before
	}
	base := Request{Bench: "fig1", Locales: 2}
	if n := runs(base); n != 1 {
		t.Fatalf("cold request: %d calibration runs, want 1", n)
	}
	same := []Request{
		{Bench: "fig1", Locales: 2, View: "code"},
		{Bench: "fig1", Locales: 2, View: "hybrid", Limit: 3},
		{Bench: "fig1", Locales: 2, View: "comm", Limit: -1},
		{Bench: "fig1", Locales: 2, View: "all", NoCache: true, Priority: 2},
	}
	if n := runs(same...); n != 0 {
		t.Fatalf("view/limit variants: %d calibration runs, want 0", n)
	}
	for _, r := range []Request{
		{Bench: "fig1", Locales: 2, Configs: map[string]string{"n": "12"}},
		{Bench: "fig1", Locales: 2, Cores: 4},
		{Bench: "fig1", Locales: 3},
		{Bench: "fig1", Locales: 2, CommAggregate: true},
		{Bench: "fig1", Locales: 2, CommAggregate: true, CommCache: 8},
		{Bench: "fig1", Locales: 2, CommInspector: true},
		{Bench: "fig1", Locales: 2, NoOwnerComputes: true},
	} {
		if n := runs(r); n != 1 {
			t.Fatalf("%s: %d calibration runs, want 1", r.Summary(), n)
		}
	}
	// A run that carries a fault injector calibrates every time.
	prog := compileBench(t, "fig1")
	cfg := (&Request{Bench: "fig1", FaultSpec: "loss=0.1"}).VMConfig(prog)
	cfg.Fault = (&Request{FaultSpec: "loss=0.1"}).Injector()
	before := calibrationRuns.Load()
	for i := 0; i < 2; i++ {
		if _, err := calibrate(prog, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := calibrationRuns.Load() - before; n != 2 {
		t.Fatalf("fault-injected calibrations: %d runs, want 2", n)
	}
	// A request with an explicit threshold neither reads nor fills the memo.
	resetCalibrations()
	if n := runs(Request{Bench: "fig1", Locales: 2, Threshold: 1001}); n != 0 {
		t.Fatalf("thresholded request: %d calibration runs, want 0", n)
	}
	calibrations.mu.Lock()
	size := len(calibrations.entries)
	calibrations.mu.Unlock()
	if size != 0 {
		t.Fatalf("thresholded request left %d memo entries", size)
	}
}

// TestCalibrationCancelledNotMemoized: a cancelled calibration returns its
// error and leaves nothing behind; the next identical request calibrates.
func TestCalibrationCancelledNotMemoized(t *testing.T) {
	resetCalibrations()
	prog := compileBench(t, "fig1")
	req := &Request{Bench: "fig1"}
	cfg := blame.DefaultConfig()
	cfg.VM = req.VMConfig(prog)
	cfg.Threshold = 0 // calibrate
	var cancel atomic.Bool
	cancel.Store(true)
	cfg.VM.Cancel = &cancel
	before := calibrationRuns.Load()
	if _, err := Profile(prog, &cfg, nil, nil); err == nil || calibrationRuns.Load() != before+1 {
		t.Fatalf("cancelled calibration: err %v after %d runs, want an error after 1", err, calibrationRuns.Load()-before)
	}
	if key := newCalibrationKey(prog, &cfg.VM); memoized(key) {
		t.Fatal("cancelled calibration was memoized")
	}
	before = calibrationRuns.Load()
	for i := 0; i < 2; i++ {
		cfg := blame.DefaultConfig()
		cfg.VM = req.VMConfig(prog)
		cfg.Threshold = 0
		if _, err := Profile(prog, &cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := calibrationRuns.Load() - before; n != 1 {
		t.Fatalf("%d calibration runs after a cancelled one, want 1", n)
	}
}

// TestCalibrationFaultBytesColdWarm: a fault-injected request gives the
// same bytes whether its calibration ran or came from the memo, because
// the injector is attached only after calibration.
func TestCalibrationFaultBytesColdWarm(t *testing.T) {
	resetCalibrations()
	req := Request{Bench: "halo", Locales: 4, CommAggregate: true, FaultSpec: "loss=0.05,dup=0.02", FaultSeed: 7}
	exec := func() *Outcome {
		r := req
		out, err := Execute(&r, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := calibrationRuns.Load()
	cold := exec()
	warm := exec()
	if n := calibrationRuns.Load() - before; n != 1 {
		t.Fatalf("%d calibration runs for a cold and a warm request, want 1", n)
	}
	if cold.Stats.Fault == nil || cold.Stats.Fault.DroppedMsgs == 0 {
		t.Fatal("fault spec injected no loss; the test would not see a perturbed PRNG")
	}
	if cold.Text != warm.Text || string(cold.ProfileJSON) != string(warm.ProfileJSON) ||
		cold.Output != warm.Output || cold.Threshold != warm.Threshold || !reflect.DeepEqual(cold.Stats, warm.Stats) {
		t.Fatal("fault-injected outcome differs between a cold and a warm calibration memo")
	}
}

// TestCalibrationMemoConcurrent: concurrent identical lookups run once,
// and waiters on a failed run retry with their own run instead of
// inheriting its error.
func TestCalibrationMemoConcurrent(t *testing.T) {
	m := newCalibrationMemo()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := m.cycles(calibrationKey{quantum: 1}, func() (uint64, error) {
				calls.Add(1)
				return 42, nil
			})
			if c != 42 || err != nil {
				t.Errorf("cycles = %d, %v", c, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d runs for 8 concurrent identical lookups, want 1", n)
	}

	errCancelled := errors.New("cancelled")
	k := calibrationKey{quantum: 2}
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		m.cycles(k, func() (uint64, error) {
			close(started)
			<-release
			return 0, errCancelled
		})
	}()
	<-started
	done := make(chan error)
	go func() {
		_, err := m.cycles(k, func() (uint64, error) { return 9, nil })
		done <- err
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("waiter inherited a failed run's error: %v", err)
	}
	if c, err := m.cycles(k, func() (uint64, error) { return 0, errors.New("ran again") }); c != 9 || err != nil {
		t.Fatalf("after retry: cycles = %d, %v; want the waiter's memoized 9", c, err)
	}
}

// TestCalibrationMemoBound pins the memo's bound: it never holds more
// than calibrationMemoMax run shapes.
func TestCalibrationMemoBound(t *testing.T) {
	if calibrationMemoMax != 4096 {
		t.Fatalf("calibrationMemoMax = %d, want 4096", calibrationMemoMax)
	}
	m := newCalibrationMemo()
	for i := 0; i < calibrationMemoMax+500; i++ {
		m.cycles(calibrationKey{maxCycles: uint64(i)}, func() (uint64, error) { return 1, nil })
	}
	if n := len(m.entries); n != calibrationMemoMax {
		t.Fatalf("memo holds %d entries, want the bound %d", n, calibrationMemoMax)
	}
}
