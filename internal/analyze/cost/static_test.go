package cost_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analyze/cost"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/views"
	"repro/internal/vm"
)

// commCount is a Listener tallying the dynamic run's messages per owning
// variable, keyed like Prediction.MsgsByVar.
type commCount struct{ perVar map[string]int64 }

func (c *commCount) Exec(uint64, *vm.Task, *ir.Instr, *vm.ArrayVal) {}
func (c *commCount) Spin(uint64, *vm.Task, *ir.Func)                {}
func (c *commCount) PreSpawn(*vm.Task, uint64)                      {}
func (c *commCount) Alloc(uint64, int64, *ir.Var)                   {}
func (c *commCount) Comm(_ uint64, _ int64, _, _ int, owner *ir.Var, _ *ir.Instr) {
	name := "?"
	if owner != nil {
		name = owner.Name
	}
	c.perVar[name]++
}

// predictAndRun predicts req's program statically and runs it on the
// VM under the same configuration; edit, when non-nil, adjusts that
// configuration for both.
func predictAndRun(t *testing.T, req *serve.Request, edit func(*vm.Config)) (*cost.Prediction, vm.Stats, map[string]int64, error) {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := compile.SourceCached(req.Name, req.Source, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := req.VMConfig(res.Prog)
	if edit != nil {
		edit(&cfg)
	}
	opts := cost.DefaultOptions()
	opts.VM = cfg
	pred := cost.Predict(res.Prog, opts)

	cnt := &commCount{perVar: make(map[string]int64)}
	cfg.Listener = cnt
	st, err := vm.New(res.Prog, cfg).Run()
	return pred, st, cnt.perVar, err
}

// checkExact fails unless the prediction's comm equals the run's.
func checkExact(t *testing.T, label string, pred *cost.Prediction, st vm.Stats, perVar map[string]int64) {
	t.Helper()
	if pred.Msgs != int64(st.CommMessages) || pred.Bytes != st.CommBytes {
		t.Errorf("%s: predicted %d messages / %d bytes, the VM measured %d / %d",
			label, pred.Msgs, pred.Bytes, st.CommMessages, st.CommBytes)
	}
	if !reflect.DeepEqual(pred.MsgsByVar, perVar) {
		t.Errorf("%s: per-variable messages: predicted %v, measured %v", label, pred.MsgsByVar, perVar)
	}
}

// TestStaticCommExact pins the static comm prediction to the VM's
// measurement on the comm benchmarks at every locale count, comm mode
// and cache capacity — including the small caches whose evictions
// depend on how the scheduler interleaves tasks, and an aggregated
// config without a comm plan, which the prediction must run as given.
func TestStaticCommExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every case twice")
	}
	benches := []struct {
		name string
		cfgs map[string]string
	}{
		{"halo", benchprog.DefaultHalo.Configs()},
		{"wavefront", benchprog.DefaultWavefront.Configs()},
		{"gather", benchprog.DefaultGather.Configs()},
		{"spmv", benchprog.DefaultSpMV.Configs()},
	}
	type mode struct {
		name      string
		agg, insp bool
		cache     int
		noPlan    bool
	}
	modes := []mode{{name: "direct"}, {name: "agg/noplan", agg: true, noPlan: true}}
	for _, c := range []int{-1, 16, 256, 0} {
		cache := fmt.Sprint(c)
		if c == 0 {
			cache = "default"
		}
		modes = append(modes,
			mode{"agg/cache=" + cache, true, false, c, false},
			mode{"insp/cache=" + cache, true, true, c, false})
	}
	for _, b := range benches {
		for _, nl := range []int{2, 4, 8} {
			for _, m := range modes {
				b, nl, m := b, nl, m
				t.Run(fmt.Sprintf("%s/L%d/%s", b.name, nl, m.name), func(t *testing.T) {
					t.Parallel()
					req := &serve.Request{
						Bench: b.name, Configs: b.cfgs, Locales: nl,
						CommAggregate: m.agg, CommInspector: m.insp, CommCache: m.cache,
					}
					var edit func(*vm.Config)
					if m.noPlan {
						edit = func(cfg *vm.Config) { cfg.CommPlan = nil }
					}
					pred, st, perVar, err := predictAndRun(t, req, edit)
					if err != nil {
						t.Fatal(err)
					}
					if !pred.WalkOK {
						t.Fatalf("skeleton run aborted: %v", pred.Notes)
					}
					checkExact(t, t.Name(), pred, st, perVar)
				})
			}
		}
	}
}

// TestStaticAborts pins the WalkOK=false path: a branch on, or a
// distributed subscript computed from, non-int array contents aborts
// the skeleton run with a note, and comm is left unpredicted — no
// messages, no per-class or per-variable counts.
func TestStaticAborts(t *testing.T) {
	cases := []struct {
		name, src, bench string
		locales          int
		note             string
	}{
		{
			name: "minimd", bench: "minimd", locales: 4,
			note: "comm not predicted: skeleton run aborted (data-dependent branch in forall_fn_chpl2 at {1 67 5})",
		},
		{
			name: "real-branch", locales: 2,
			src: `config const n = 16;
var D: domain(1) dmapped Block = {0..#n};
var A: [D] real;
var B: [D] real;
proc main() {
  forall i in D {
    A[i] = i * 0.5;
  }
  forall i in D {
    if A[i] > 2.0 {
      B[i] = A[i];
    }
  }
  writeln(+ reduce B);
}
`,
			note: "comm not predicted: skeleton run aborted (data-dependent branch in forall_fn_chpl2 at {1 10 8})",
		},
		{
			// The frontend only accepts int subscripts, but a real element
			// broadcast into an int array carries its value into one.
			name: "real-subscript", locales: 2,
			src: `config const n = 16;
var D: domain(1) dmapped Block = {0..#n};
var E: domain(1) = {0..#1};
var A: [D] real;
var X: [D] real;
var K: [E] int;
proc main() {
  forall i in D {
    X[i] = (n - 1 - i) * 1.0;
  }
  for i in D {
    K = X[i];
    A[K[0]] = 1.0;
  }
  writeln(+ reduce A);
}
`,
			note: "comm not predicted: skeleton run aborted (data-dependent index into A at {1 13 5})",
		},
		{
			// A halo read under a data-dependent branch: the run sends 496
			// messages (35 aggregated), so any static count would be a guess.
			name: "halo-branch", locales: 2,
			src: `config const n = 64;
config const reps = 4;
var D: domain(1) dmapped Block = {0..#n};
var A: [D] real;
var B: [D] real;
proc main() {
  forall i in D {
    A[i] = i * 0.1;
  }
  for r in 1..reps {
    forall i in 1..n-2 {
      if A[i] > 2.0 {
        B[i] = A[i-1] + A[i+1];
      }
    }
  }
  writeln(+ reduce B);
}
`,
			note: "comm not predicted: skeleton run aborted (data-dependent branch in forall_fn_chpl2 at {1 12 10})",
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			req := &serve.Request{Bench: c.bench, Source: c.src, Locales: c.locales}
			if err := req.Normalize(); err != nil {
				t.Fatal(err)
			}
			res, err := compile.SourceCached(req.Name, req.Source, compile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := cost.DefaultOptions()
			opts.VM = req.VMConfig(res.Prog)
			pred := cost.Predict(res.Prog, opts)
			if pred.WalkOK {
				t.Fatal("skeleton run completed; want an abort")
			}
			found := false
			for _, n := range pred.Notes {
				found = found || n == c.note
			}
			if !found {
				t.Errorf("notes %q lack %q", pred.Notes, c.note)
			}
			if pred.Msgs != 0 || pred.Bytes != 0 || len(pred.MsgsByClass) != 0 || len(pred.MsgsByVar) != 0 {
				t.Errorf("aborted run predicted comm: %d msgs, %d bytes, by class %v, by var %v",
					pred.Msgs, pred.Bytes, pred.MsgsByClass, pred.MsgsByVar)
			}
		})
	}
}

// TestStaticIgnoresCompiledBackend registers a compiled backend that
// fails on every slice: the skeleton run must still interpret, so the
// prediction is unchanged.
func TestStaticIgnoresCompiledBackend(t *testing.T) {
	const src = `config const n = 64;
var D: domain(1) dmapped Block = {0..#n};
var A: [D] real;
var B: [D] real;
proc main() {
  forall i in D {
    A[i] = i * 1.0;
  }
  forall i in 1..n-2 {
    B[i] = A[i-1] + A[i+1];
  }
  writeln(+ reduce B);
}
`
	res, err := compile.SourceCached("compiled-static.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := &serve.Request{Source: src, Locales: 4, CommAggregate: true, View: "static"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	render := func() string {
		opts := cost.DefaultOptions()
		opts.VM = req.VMConfig(res.Prog)
		pred := cost.Predict(res.Prog, opts)
		if !pred.WalkOK || pred.Msgs == 0 {
			t.Fatalf("want a completed skeleton run with comm, got WalkOK=%v msgs=%d %v", pred.WalkOK, pred.Msgs, pred.Notes)
		}
		return views.Predicted(pred, 20)
	}
	want := render()
	vm.RegisterCompiled(res.Prog, func(*vm.VM, *vm.Task, int) {
		panic("compiled backend used by a skeleton run")
	})
	if got := render(); got != want {
		t.Fatalf("prediction changed under a compiled backend:\n--- want\n%s--- got\n%s", want, got)
	}
}

// FuzzStaticVsDynamic checks the static comm prediction against the VM
// for arbitrary frontend-accepted programs at 1, 2 and 4 locales in
// every comm mode, plus a 16-element cache whose evictions depend on the
// task interleaving: whenever the skeleton run completes (WalkOK), the
// predicted messages, bytes and per-variable messages equal the VM's.
// The seed corpus in testdata/fuzz holds the benchmark programs and the
// backend-differential fuzzer's seeds.
func FuzzStaticVsDynamic(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if err := (&serve.Request{Source: src}).Normalize(); err != nil {
			t.Skip("request rejected")
		}
		if _, err := compile.SourceCached("fuzz.mchpl", src, compile.Options{}); err != nil {
			t.Skip("frontend rejected")
		}
		for _, nl := range []int{1, 2, 4} {
			for _, mode := range []struct {
				agg, insp bool
				cache     int
			}{{false, false, 0}, {true, false, 0}, {true, true, 0}, {true, true, 16}} {
				req := &serve.Request{Source: src, Name: "fuzz.mchpl", Locales: nl, Cores: 4,
					CommAggregate: mode.agg, CommInspector: mode.insp, CommCache: mode.cache}
				// A low cycle budget keeps pathological loops fast; a run
				// that hits it (or fails otherwise) has nothing to compare.
				pred, st, perVar, err := predictAndRun(t, req, func(cfg *vm.Config) { cfg.MaxCycles = 20_000_000 })
				if err != nil || len(st.TaskPanics) > 0 || !pred.WalkOK && nl > 1 {
					continue
				}
				checkExact(t, fmt.Sprintf("L%d %+v", nl, mode), pred, st, perVar)
			}
		}
	})
}
