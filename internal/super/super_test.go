package super

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/gobert"
	"repro/internal/fault"
	"repro/internal/gobe"
	"repro/internal/serve"
	"repro/internal/vm"
)

// fakeRunner writes an executable shell script standing in for a gobert
// runner binary and returns a Target for it (no fallback). The script
// body runs with $STATE pointing at a per-test scratch file.
func fakeRunner(t *testing.T, body string) Target {
	t.Helper()
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	script := fmt.Sprintf("#!/bin/sh\nSTATE=%q\n%s\n", state, body)
	bin := filepath.Join(dir, "runner")
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return Target{Key: "fake:" + t.Name(), Bin: bin}
}

// okReply is a minimal valid runner reply.
const okReply = `printf '{"output":"ok","wall_ns":1,"compiled":true}'`

// crashTimes wraps a script body so the first n invocations SIGKILL
// themselves (counting via $STATE) and later ones run the body.
func crashTimes(n int, body string) string {
	return fmt.Sprintf(`c=$(cat "$STATE" 2>/dev/null || echo 0)
echo $((c+1)) > "$STATE"
if [ "$c" -lt %d ]; then kill -9 $$; fi
%s`, n, body)
}

// fastOpts returns supervisor options with test-speed budgets and a
// recorded (not slept) backoff schedule.
func fastOpts(maxRetries int) (Options, *[]time.Duration) {
	var waits []time.Duration
	o := Options{
		AttemptTimeout: 5 * time.Second,
		Retry:          fault.RetryPolicy{MaxRetries: maxRetries},
		BackoffUnit:    time.Nanosecond,
		sleep:          func(d time.Duration) { waits = append(waits, d) },
	}
	return o, &waits
}

func TestExecSuccessFirstTry(t *testing.T) {
	opts, _ := fastOpts(3)
	s := New(opts)
	reply, err := s.Exec(fakeRunner(t, okReply), &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Output != "ok" || !reply.Compiled {
		t.Fatalf("reply = %+v", reply)
	}
	st := s.Stats()
	if st.Launches != 1 || st.Restarts != 0 || st.Crashes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExecRestartsAfterSigkill: two SIGKILLs then success — the
// supervisor restarts with the policy's bounded exponential backoff and
// the final reply is served as if nothing happened.
func TestExecRestartsAfterSigkill(t *testing.T) {
	opts, waits := fastOpts(5)
	opts.Retry.BackoffBase, opts.Retry.BackoffCap = 2, 16
	s := New(opts)
	reply, err := s.Exec(fakeRunner(t, crashTimes(2, okReply)), &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Output != "ok" {
		t.Fatalf("reply = %+v", reply)
	}
	st := s.Stats()
	if st.Restarts != 2 || st.Crashes != 2 || st.SigKills != 2 {
		t.Fatalf("restarts=%d crashes=%d sigkills=%d, want 2/2/2", st.Restarts, st.Crashes, st.SigKills)
	}
	if st.Launches != 3 || st.Fallbacks != 0 {
		t.Fatalf("launches=%d fallbacks=%d, want 3/0", st.Launches, st.Fallbacks)
	}
	// Backoff schedule: base 2 then doubled to 4 (units, BackoffUnit=1ns).
	want := []time.Duration{2, 4}
	if len(*waits) != len(want) || (*waits)[0] != want[0] || (*waits)[1] != want[1] {
		t.Fatalf("backoff waits = %v, want %v", *waits, want)
	}
}

// TestExecExhaustedRetriesFallsBack: a runner that always crashes burns
// the whole retry budget, then the interpreter fallback serves.
func TestExecExhaustedRetriesFallsBack(t *testing.T) {
	opts, _ := fastOpts(2)
	s := New(opts)
	tgt := fakeRunner(t, `kill -9 $$`)
	tgt.Fallback = func(spec *gobert.RunSpec) (*gobert.Reply, error) {
		return &gobert.Reply{Output: "interp"}, nil
	}
	reply, err := s.Exec(tgt, &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Output != "interp" {
		t.Fatalf("reply = %+v, want the fallback's", reply)
	}
	st := s.Stats()
	if st.Launches != 3 || st.Restarts != 2 || st.Fallbacks != 1 {
		t.Fatalf("launches=%d restarts=%d fallbacks=%d, want 3/2/1", st.Launches, st.Restarts, st.Fallbacks)
	}
}

// TestExecNoFallbackSurfacesError: exhausted retries without a fallback
// must return the crash cause, not nil-dereference.
func TestExecNoFallbackSurfacesError(t *testing.T) {
	opts, _ := fastOpts(1)
	s := New(opts)
	_, err := s.Exec(fakeRunner(t, `kill -9 $$`), &gobert.RunSpec{Mode: "run"})
	if err == nil || !strings.Contains(err.Error(), "SIGKILL") {
		t.Fatalf("err = %v, want a SIGKILL crash cause", err)
	}
}

// TestExecTimeoutKillsHungRunner: a hung runner is SIGKILLed at the
// wall-clock budget, retried, then falls back.
func TestExecTimeoutKillsHungRunner(t *testing.T) {
	opts, _ := fastOpts(1)
	opts.AttemptTimeout = 50 * time.Millisecond
	s := New(opts)
	tgt := fakeRunner(t, `sleep 60`)
	tgt.Fallback = func(spec *gobert.RunSpec) (*gobert.Reply, error) {
		return &gobert.Reply{Output: "interp"}, nil
	}
	start := time.Now()
	reply, err := s.Exec(tgt, &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Output != "interp" {
		t.Fatalf("reply = %+v", reply)
	}
	if st := s.Stats(); st.Timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2 (initial + one retry)", st.Timeouts)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("supervisor waited %s on a hung runner", el)
	}
}

// TestExecPermanentErrorSkipsRetries: a deterministic runner rejection
// (Reply.Err, e.g. a stale fingerprint) goes straight to the fallback —
// no restarts, since rerunning cannot change the answer.
func TestExecPermanentErrorSkipsRetries(t *testing.T) {
	opts, _ := fastOpts(5)
	s := New(opts)
	tgt := fakeRunner(t, `printf '{"err":"IR fingerprint mismatch (stale runner?)"}'; exit 1`)
	tgt.Fallback = func(spec *gobert.RunSpec) (*gobert.Reply, error) {
		return &gobert.Reply{Output: "interp"}, nil
	}
	reply, err := s.Exec(tgt, &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Output != "interp" {
		t.Fatalf("reply = %+v", reply)
	}
	st := s.Stats()
	if st.Restarts != 0 || st.PermanentFailures != 1 || st.Launches != 1 {
		t.Fatalf("restarts=%d permanent=%d launches=%d, want 0/1/1", st.Restarts, st.PermanentFailures, st.Launches)
	}
}

// TestExecRunErrIsSuccess: a program-level runtime error inside a valid
// reply is a successful supervision (the interpreter would report the
// same error); it must not burn retries or trip the breaker.
func TestExecRunErrIsSuccess(t *testing.T) {
	opts, _ := fastOpts(3)
	s := New(opts)
	reply, err := s.Exec(fakeRunner(t, `printf '{"run_err":"halt: boom"}'`), &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.RunErr != "halt: boom" {
		t.Fatalf("reply = %+v", reply)
	}
	if st := s.Stats(); st.Restarts != 0 || st.Crashes != 0 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want a clean success", st)
	}
}

// TestOutcomeDecodes: Outcome decodes the runner's outcome envelope,
// attaches its profile, and returns a program-level RunErr or an
// undecodable envelope as the error.
func TestOutcomeDecodes(t *testing.T) {
	opts, _ := fastOpts(0)
	s := New(opts)
	outcome := func(body string) (*serve.Outcome, error) {
		r := &gobe.Runner{Name: "p.mchpl", Source: "writeln(1);\n", Bin: fakeRunner(t, body).Bin}
		return s.Outcome(r, &serve.Request{}, nil)
	}
	out, err := outcome(`printf '{"outcome":{"text":"view","samples":3},"profile":{"rows":1}}'`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Text != "view" || out.Samples != 3 || string(out.ProfileJSON) != `{"rows":1}` {
		t.Fatalf("outcome = %+v, profile %s", out, out.ProfileJSON)
	}
	if _, err := outcome(`printf '{"run_err":"halt: boom"}'`); err == nil || err.Error() != "halt: boom" {
		t.Fatalf("run error: err = %v", err)
	}
	if _, err := outcome(`printf '{"outcome":"text"}'`); err == nil || !strings.Contains(err.Error(), "decoding runner outcome") {
		t.Fatalf("bad envelope: err = %v", err)
	}
}

// TestBreakerTripsAndShortCircuits: after BreakerThreshold consecutive
// failed executions the breaker opens and later requests skip the
// compiled path entirely (zero launches) while still serving via the
// fallback.
func TestBreakerTripsAndShortCircuits(t *testing.T) {
	opts, _ := fastOpts(-1) // no retries: each exec = one attempt
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = time.Hour
	s := New(opts)
	tgt := fakeRunner(t, `kill -9 $$`)
	tgt.Fallback = func(spec *gobert.RunSpec) (*gobert.Reply, error) {
		return &gobert.Reply{Output: "interp"}, nil
	}
	for i := 0; i < 4; i++ {
		reply, err := s.Exec(tgt, &gobert.RunSpec{Mode: "run"})
		if err != nil || reply.Output != "interp" {
			t.Fatalf("exec %d: reply=%+v err=%v", i, reply, err)
		}
	}
	st := s.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("trips = %d, want 1", st.BreakerTrips)
	}
	// Execs 1 and 2 launch (and fail); 3 and 4 short-circuit.
	if st.Launches != 2 || st.BreakerShortCircuits != 2 {
		t.Fatalf("launches=%d shortcircuits=%d, want 2/2", st.Launches, st.BreakerShortCircuits)
	}
	if st.BreakersOpen != 1 {
		t.Fatalf("breakers open = %d, want 1", st.BreakersOpen)
	}
}

// TestBreakerHalfOpenRecovery: after the cooldown one probe runs the
// compiled path; a healthy runner closes the breaker again.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	opts, _ := fastOpts(-1)
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = 30 * time.Millisecond
	s := New(opts)

	// Crash while the marker file exists, then recover.
	tgt := fakeRunner(t, `if [ -e "$STATE.bad" ]; then kill -9 $$; fi
`+okReply)
	marker := filepath.Join(filepath.Dir(tgt.Bin), "state.bad")
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tgt.Fallback = func(spec *gobert.RunSpec) (*gobert.Reply, error) {
		return &gobert.Reply{Output: "interp"}, nil
	}

	if reply, _ := s.Exec(tgt, &gobert.RunSpec{Mode: "run"}); reply.Output != "interp" {
		t.Fatalf("tripping exec got %+v", reply)
	}
	if st := s.Stats(); st.BreakerTrips != 1 {
		t.Fatalf("trips = %d, want 1", st.BreakerTrips)
	}
	// Still open: short-circuit.
	if reply, _ := s.Exec(tgt, &gobert.RunSpec{Mode: "run"}); reply.Output != "interp" {
		t.Fatalf("open exec got %+v", reply)
	}

	os.Remove(marker)
	time.Sleep(40 * time.Millisecond) // cooldown elapses

	reply, err := s.Exec(tgt, &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Output != "ok" {
		t.Fatalf("probe reply = %+v, want the compiled path again", reply)
	}
	st := s.Stats()
	if st.BreakerProbes != 1 || st.BreakerCloses != 1 || st.BreakersOpen != 0 {
		t.Fatalf("probes=%d closes=%d open=%d, want 1/1/0", st.BreakerProbes, st.BreakerCloses, st.BreakersOpen)
	}
}

// TestBreakerReopensOnFailedProbe: a probe that crashes reopens the
// breaker for another cooldown instead of resetting it.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	opts, _ := fastOpts(-1)
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = 20 * time.Millisecond
	s := New(opts)
	tgt := fakeRunner(t, `kill -9 $$`)
	tgt.Fallback = func(spec *gobert.RunSpec) (*gobert.Reply, error) {
		return &gobert.Reply{Output: "interp"}, nil
	}
	s.Exec(tgt, &gobert.RunSpec{Mode: "run"}) // trips
	time.Sleep(30 * time.Millisecond)
	s.Exec(tgt, &gobert.RunSpec{Mode: "run"}) // probe, fails, reopens
	st := s.Stats()
	if st.BreakerProbes != 1 || st.BreakerCloses != 0 || st.BreakersOpen != 1 {
		t.Fatalf("probes=%d closes=%d open=%d, want 1/0/1", st.BreakerProbes, st.BreakerCloses, st.BreakersOpen)
	}
	if st.BreakerTrips != 1 {
		t.Fatalf("reopen counted as a fresh trip: trips = %d", st.BreakerTrips)
	}
}

// TestCancelKillsRunner: setting the cancel flag mid-run SIGKILLs the
// runner and reports cancellation without retrying or falling back.
func TestCancelKillsRunner(t *testing.T) {
	opts, _ := fastOpts(3)
	s := New(opts)
	tgt := fakeRunner(t, `sleep 60`)
	tgt.Fallback = func(spec *gobert.RunSpec) (*gobert.Reply, error) {
		t.Error("cancelled run must not fall back")
		return nil, nil
	}
	var cancel atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := s.exec(tgt, &gobert.RunSpec{Mode: "run"}, &cancel)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel.Store(true)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), vm.ErrCancelled) {
			t.Fatalf("err = %v, want cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled exec never returned")
	}
	if st := s.Stats(); st.Cancelled != 1 || st.Restarts != 0 {
		t.Fatalf("cancelled=%d restarts=%d, want 1/0", st.Cancelled, st.Restarts)
	}
}

// TestChaosArmsKillEnv: with KillProb=1 the supervisor arms the
// runner's self-kill env var; MaxKills bounds how many attempts are
// armed, so the run converges on an unarmed attempt.
func TestChaosArmsKillEnv(t *testing.T) {
	opts, _ := fastOpts(4)
	opts.Chaos = &Chaos{Seed: 1, KillProb: 1, MinDelayUS: 10, MaxDelayUS: 20, MaxKills: 2}
	s := New(opts)
	// The fake runner honors the env var the way gobert.Main does
	// (immediately, since it has no real work to stretch over).
	tgt := fakeRunner(t, `if [ -n "$MCHPL_RUNNER_CRASH_AFTER_US" ]; then kill -9 $$; fi
`+okReply)
	reply, err := s.Exec(tgt, &gobert.RunSpec{Mode: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Output != "ok" {
		t.Fatalf("reply = %+v", reply)
	}
	st := s.Stats()
	if st.ChaosKillsArmed != 2 || st.Restarts != 2 || st.Fallbacks != 0 {
		t.Fatalf("armed=%d restarts=%d fallbacks=%d, want 2/2/0", st.ChaosKillsArmed, st.Restarts, st.Fallbacks)
	}
}

// TestChaosDeterministicDelays: the same seed yields the same armed
// delays (the harness's replayability guarantee).
func TestChaosDeterministicDelays(t *testing.T) {
	draw := func() []int64 {
		s := New(Options{Chaos: &Chaos{Seed: 99, MinDelayUS: 1000, MaxDelayUS: 9000}})
		var out []int64
		for i := 0; i < 8; i++ {
			out = append(out, s.chaosDelay())
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d diverged: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 1000 || a[i] > 9000 {
			t.Fatalf("delay %d out of range: %d", i, a[i])
		}
	}
}

// TestBackoffWait pins the unit schedule against the policy semantics.
func TestBackoffWait(t *testing.T) {
	pol := fault.RetryPolicy{MaxRetries: 9, BackoffBase: 1, BackoffCap: 16, TimeoutUnits: 32}
	want := []time.Duration{1, 2, 4, 8, 16, 16, 16}
	for attempt, w := range want {
		if got := backoffWait(pol, attempt); got != w {
			t.Fatalf("backoffWait(attempt=%d) = %d, want %d", attempt, got, w)
		}
	}
	if got := backoffWait(pol, 40); got != 16 {
		t.Fatalf("large attempt must clamp to cap, got %d", got)
	}
}

// TestAuxMetricsShape: the aux metric keys are stable and the values
// reflect the counters (serve renders these into /metrics).
func TestAuxMetricsShape(t *testing.T) {
	opts, _ := fastOpts(-1)
	s := New(opts)
	if _, err := s.Exec(fakeRunner(t, okReply), &gobert.RunSpec{Mode: "run"}); err != nil {
		t.Fatal(err)
	}
	m := s.AuxMetrics()
	if m["super_launches_total"] != 1 {
		t.Fatalf("launches metric = %v", m["super_launches_total"])
	}
	for _, k := range []string{"super_restarts_total", "super_fallbacks_total", "super_breaker_trips_total", "super_breakers_open"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("missing aux metric %s", k)
		}
	}
	if b, err := json.Marshal(s.Stats()); err != nil || len(b) == 0 {
		t.Fatalf("stats snapshot must be JSON-encodable: %v", err)
	}
}
