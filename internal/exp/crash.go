package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/gobert"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/gobe"
	"repro/internal/serve"
	"repro/internal/super"
)

// This file is the crash-chaos harness behind `paperbench -crashtest`:
// the process-level companion to the comm-fault chaos study. Four
// phases, each pinning one leg of the resilience design (DESIGN §11):
//
//	A  runner chaos      — seeded SIGKILLs at randomized quanta; the
//	                       supervisor restarts and every reply stays
//	                       byte-identical to the interpreter
//	B  breaker fallback  — a runner that always dies trips the circuit
//	                       breaker; served bytes never change
//	C  kill + warm boot  — a blamed server is abandoned without any
//	                       graceful flush; a restart on the same journal
//	                       restores the outcome cache (≥90% hit rate,
//	                       identical bytes)
//	D  graceful drain    — shutdown under live load sheds new submits
//	                       with 503s and loses zero accepted sessions
//
// Every gate failure lands in CrashResult.Failures; paperbench exits
// nonzero if any phase failed.

// CrashTestOptions shapes one crash-chaos run.
type CrashTestOptions struct {
	// Seed drives every PRNG in the harness (kill decisions, delays).
	Seed uint64
	// ChaosRuns is the phase-A supervised execution count (0 = 6).
	ChaosRuns int
	// Dir is the scratch directory for phase C's journal (empty = a
	// fresh temp dir).
	Dir string
}

// CrashPhase is one phase's observable outcome.
type CrashPhase struct {
	Name      string `json:"name"`
	Runs      int    `json:"runs"`
	Kills     uint64 `json:"kills"`
	Restarts  uint64 `json:"restarts"`
	Fallbacks uint64 `json:"fallbacks"`
	Diffs     int    `json:"diffs"`
	Skipped   bool   `json:"skipped,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// CrashResult is what one crash-chaos run measured.
type CrashResult struct {
	Seed     uint64       `json:"seed"`
	Phases   []CrashPhase `json:"phases"`
	Failures []string     `json:"failures,omitempty"`
	// ToolchainSkipped is set when phases A/B could not run because the
	// Go toolchain is unavailable (phases C/D still gate).
	ToolchainSkipped bool `json:"toolchain_skipped,omitempty"`
}

// Text renders the result for paperbench's report.
func (r *CrashResult) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Crash chaos (seed %d)\n", r.Seed)
	for _, p := range r.Phases {
		if p.Skipped {
			fmt.Fprintf(&b, "  %-18s SKIPPED — %s\n", p.Name, p.Detail)
			continue
		}
		fmt.Fprintf(&b, "  %-18s runs %-3d kills %-3d restarts %-3d fallbacks %-3d diffs %d   %s\n",
			p.Name, p.Runs, p.Kills, p.Restarts, p.Fallbacks, p.Diffs, p.Detail)
	}
	if len(r.Failures) == 0 {
		b.WriteString("  all gates passed\n")
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n", f)
	}
	return b.String()
}

func (r *CrashResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// crashWorkload is the small program both supervised phases execute:
// cheap enough that a phase is fast, real enough that the runner spends
// measurable wall time in compile+run (so armed kills actually land).
func crashWorkload() (benchprog.Program, *gobert.RunSpec) {
	prog := benchprog.Halo()
	cfgs := benchprog.HaloConfig{N: 128, Reps: 2}.Configs()
	spec := &gobert.RunSpec{Mode: "run", MaxCycles: 20_000_000_000, Request: &serve.Request{
		Cores: 4, Locales: 2, Configs: cfgs,
	}}
	return prog, spec
}

// CrashTest runs the four-phase crash-chaos harness.
func CrashTest(opts CrashTestOptions) (*CrashResult, error) {
	if opts.ChaosRuns <= 0 {
		opts.ChaosRuns = 6
	}
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "crashtest")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.Dir = dir
	}
	res := &CrashResult{Seed: opts.Seed}

	prog, spec := crashWorkload()
	r, err := gobe.Build(prog.Name+".mchpl", prog.Source, compile.Options{})
	switch {
	case errors.Is(err, gobe.ErrNoGoToolchain):
		res.ToolchainSkipped = true
		res.Phases = append(res.Phases,
			CrashPhase{Name: "A runner-chaos", Skipped: true, Detail: "no Go toolchain"},
			CrashPhase{Name: "B breaker", Skipped: true, Detail: "no Go toolchain"})
	case err != nil:
		return nil, err
	default:
		interp, err := gobe.InterpReply(r.Name, r.Source, r.Opts, spec)
		if err != nil {
			return nil, err
		}
		res.Phases = append(res.Phases, crashPhaseA(res, opts, r, spec, interp))
		res.Phases = append(res.Phases, crashPhaseB(res, opts, r, spec, interp))
	}

	pc, err := crashPhaseC(res, opts)
	if err != nil {
		return nil, err
	}
	res.Phases = append(res.Phases, pc)

	pd, err := crashPhaseD(res)
	if err != nil {
		return nil, err
	}
	res.Phases = append(res.Phases, pd)
	return res, nil
}

// crashPhaseA: every run is interrupted and must still converge on the
// COMPILED path with a reply byte-identical to the interpreter. Two
// legs per supervisor seed: a deterministic one (two guaranteed-lethal
// 0µs kills, so every run restarts exactly twice before succeeding)
// and a randomized one (seeded kill timers at 0–1.2ms quanta, landing
// during startup, compile, or mid-run — or missing entirely, which is
// also a legal interleaving). MaxKills 2 stays inside the default
// retry budget, so the fallback must never engage.
func crashPhaseA(res *CrashResult, opts CrashTestOptions, r *gobe.Runner, spec *gobert.RunSpec, interp *gobert.Reply) CrashPhase {
	deterministic := super.New(super.Options{
		BackoffUnit: time.Millisecond,
		Chaos: &super.Chaos{
			Seed: opts.Seed, KillProb: 1,
			MinDelayUS: 0, MaxDelayUS: 0, MaxKills: 2,
		},
	})
	randomized := super.New(super.Options{
		BackoffUnit: time.Millisecond,
		Chaos: &super.Chaos{
			Seed: opts.Seed, KillProb: 0.7,
			MinDelayUS: 0, MaxDelayUS: 1200, MaxKills: 2,
		},
	})
	p := CrashPhase{Name: "A runner-chaos", Runs: 2 * opts.ChaosRuns}
	run := func(sup *super.Supervisor, leg string, i int) {
		reply, err := sup.Exec(super.ForRunner(r), spec)
		if err != nil {
			res.fail("phase A %s run %d: %v", leg, i, err)
			return
		}
		if diffs := gobe.Diff(interp, reply); len(diffs) > 0 {
			p.Diffs += len(diffs)
			res.fail("phase A %s run %d diverged after restarts:\n%s", leg, i, diffs[0])
		}
	}
	for i := 0; i < opts.ChaosRuns; i++ {
		run(deterministic, "deterministic", i)
		run(randomized, "randomized", i)
	}
	det, rnd := deterministic.Stats(), randomized.Stats()
	p.Kills = det.ChaosKillsArmed + rnd.ChaosKillsArmed
	p.Restarts = det.Restarts + rnd.Restarts
	p.Fallbacks = det.Fallbacks + rnd.Fallbacks
	if want := uint64(2 * opts.ChaosRuns); det.Restarts != want {
		res.fail("phase A deterministic leg restarted %d times, want %d (every run killed twice)", det.Restarts, want)
	}
	if det.SigKills != det.ChaosKillsArmed {
		res.fail("phase A deterministic leg: %d kills armed but only %d SIGKILLs detected", det.ChaosKillsArmed, det.SigKills)
	}
	if p.Fallbacks != 0 {
		res.fail("phase A fell back %d times; MaxKills < retry budget must converge on the compiled path", p.Fallbacks)
	}
	p.Detail = fmt.Sprintf("sigkills %d, byte-identical after every restart", det.SigKills+rnd.SigKills)
	return p
}

// crashPhaseB: a runner that dies on every launch (kill at t=0, no kill
// bound). Retries exhaust, the breaker trips, and every subsequent
// execution short-circuits to the interpreter fallback — whose bytes
// are the same bytes by the PR 8 differential guarantee.
func crashPhaseB(res *CrashResult, opts CrashTestOptions, r *gobe.Runner, spec *gobert.RunSpec, interp *gobert.Reply) CrashPhase {
	sup := super.New(super.Options{
		Retry:            fault.RetryPolicy{MaxRetries: 1, BackoffBase: 1, BackoffCap: 1, TimeoutUnits: 1},
		BackoffUnit:      time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // no half-open probe during the phase
		Chaos: &super.Chaos{
			Seed: opts.Seed + 1, KillProb: 1, MinDelayUS: 0, MaxDelayUS: 0,
		},
	})
	const runs = 3
	p := CrashPhase{Name: "B breaker", Runs: runs}
	for i := 0; i < runs; i++ {
		reply, err := sup.Exec(super.ForRunner(r), spec)
		if err != nil {
			res.fail("phase B run %d: %v", i, err)
			continue
		}
		if diffs := gobe.Diff(interp, reply); len(diffs) > 0 {
			p.Diffs += len(diffs)
			res.fail("phase B run %d: fallback bytes diverged:\n%s", i, diffs[0])
		}
	}
	st := sup.Stats()
	p.Kills, p.Restarts, p.Fallbacks = st.ChaosKillsArmed, st.Restarts, st.Fallbacks
	if st.BreakerTrips == 0 {
		res.fail("phase B never tripped the breaker (trips=0, fallbacks=%d)", st.Fallbacks)
	}
	if st.BreakerShortCircuits == 0 {
		res.fail("phase B breaker never short-circuited")
	}
	if st.Fallbacks != runs {
		res.fail("phase B fallbacks = %d, want %d (every run served by the interpreter)", st.Fallbacks, runs)
	}
	p.Detail = fmt.Sprintf("trips %d, short-circuits %d, fallback byte-identical", st.BreakerTrips, st.BreakerShortCircuits)
	return p
}

// bootServe starts an in-process blamed server on a loopback port.
func bootServe(opts serve.Options) (*serve.Server, *http.Server, string, error) {
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return srv, hs, "http://" + ln.Addr().String(), nil
}

// crashSubmit posts one request with ?wait=1 and returns (status, body).
func crashSubmit(base string, req *serve.Request) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(base+"/v1/submit?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

type crashWaitReply struct {
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Text   string `json:"text"`
	Error  string `json:"error"`
}

// crashPhaseC: run the load mix against a journaled server, then
// abandon the server with NO graceful flush — the moral equivalent of
// kill -9, legitimate because journal appends are single unbuffered
// writes (the real-SIGKILL variant runs in CI against the actual
// daemon). A second server booted on the same journal must serve the
// same requests from cache: ≥90% hit rate, byte-identical text.
func crashPhaseC(res *CrashResult, opts CrashTestOptions) (CrashPhase, error) {
	journal := filepath.Join(opts.Dir, "outcomes.jnl")
	mix := loadMix()
	p := CrashPhase{Name: "C journal-reboot", Runs: len(mix) * 2}

	// Reference bytes through the in-process pipeline.
	expected := make([]string, len(mix))
	for i, m := range mix {
		req := *m
		if err := req.Normalize(); err != nil {
			return p, err
		}
		out, err := serve.Execute(&req, nil)
		if err != nil {
			return p, err
		}
		expected[i] = out.Text
	}

	srv1, hs1, base1, err := bootServe(serve.Options{Workers: 4, Journal: journal})
	if err != nil {
		return p, err
	}
	for i, m := range mix {
		code, body, err := crashSubmit(base1, m)
		if err != nil {
			return p, err
		}
		var rep crashWaitReply
		if err := json.Unmarshal(body, &rep); err != nil || code != http.StatusOK || rep.State != "done" {
			res.fail("phase C pre-kill submit %d: HTTP %d %s", i, code, body)
			continue
		}
		if rep.Text != expected[i] {
			res.fail("phase C pre-kill submit %d: bytes differ from the CLI path", i)
		}
	}
	// "kill -9": stop the listener and walk away. srv1 is never Closed,
	// so the journal gets no flush, no sync, no goodbye.
	hs1.Close()
	_ = srv1

	srv2, hs2, base2, err := bootServe(serve.Options{Workers: 4, Journal: journal})
	if err != nil {
		return p, err
	}
	defer func() { hs2.Close(); srv2.Close() }()
	hits := 0
	for i, m := range mix {
		code, body, err := crashSubmit(base2, m)
		if err != nil {
			return p, err
		}
		var rep crashWaitReply
		if err := json.Unmarshal(body, &rep); err != nil || code != http.StatusOK || rep.State != "done" {
			res.fail("phase C post-reboot submit %d: HTTP %d %s", i, code, body)
			continue
		}
		if rep.Cached {
			hits++
		}
		if rep.Text != expected[i] {
			res.fail("phase C post-reboot submit %d: replayed bytes differ", i)
		}
	}
	rate := float64(hits) / float64(len(mix))
	if rate < 0.9 {
		res.fail("phase C replay hit rate %.0f%% below the 90%% floor (%d/%d)", rate*100, hits, len(mix))
	}
	p.Detail = fmt.Sprintf("replay hit rate %d/%d after unflushed kill", hits, len(mix))
	return p, nil
}

// crashPhaseD: graceful drain under live load. Clients hammer a small
// server; mid-storm the server drains and shuts down. Every submission
// either completes with the exact expected bytes (200) or is cleanly
// refused (503 with a Retry-After, or a connection error once the
// listener is gone). Anything else is a lost session.
func crashPhaseD(res *CrashResult) (CrashPhase, error) {
	p := CrashPhase{Name: "D drain"}
	srv, hs, base, err := bootServe(serve.Options{Workers: 2})
	if err != nil {
		return p, err
	}

	// Distinct cheap requests so the 2 workers stay saturated.
	var reqs []*serve.Request
	for n := 96; n <= 160; n += 16 {
		for reps := 1; reps <= 2; reps++ {
			reqs = append(reqs, &serve.Request{
				Bench: "halo", Locales: 2, View: "data",
				Configs: map[string]string{"n": fmt.Sprint(n), "reps": fmt.Sprint(reps)},
			})
		}
	}

	var (
		mu        sync.Mutex
		expected  = map[int]string{} // lazily computed reference bytes
		completed int
		shed      int
		refused   int
		lost      int
	)
	expect := func(i int) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		if s, ok := expected[i]; ok {
			return s, nil
		}
		req := *reqs[i]
		if err := req.Normalize(); err != nil {
			return "", err
		}
		out, err := serve.Execute(&req, nil)
		if err != nil {
			return "", err
		}
		expected[i] = out.Text
		return out.Text, nil
	}

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += 6 {
				code, body, err := crashSubmit(base, reqs[i])
				if err != nil {
					// Listener already gone: the submit was never accepted.
					mu.Lock()
					refused++
					mu.Unlock()
					return
				}
				switch code {
				case http.StatusOK:
					var rep crashWaitReply
					want, werr := expect(i)
					mu.Lock()
					if werr != nil || json.Unmarshal(body, &rep) != nil ||
						rep.State != "done" || rep.Text != want {
						lost++
						res.fail("phase D: accepted session %d did not complete byte-identical: %s", i, body)
					} else {
						completed++
					}
					mu.Unlock()
				case http.StatusServiceUnavailable:
					mu.Lock()
					shed++
					mu.Unlock()
					return // draining: this client gives up, as a real one would
				default:
					mu.Lock()
					lost++
					res.fail("phase D: submission %d got HTTP %d: %s", i, code, body)
					mu.Unlock()
				}
			}
		}(c)
	}

	// Let the storm build, then drain: refuse-new first (clean 503s
	// while the listener is up), then stop the listener and wait for
	// in-flight wait=1 responses, then stop the scheduler.
	time.Sleep(30 * time.Millisecond)
	srv.BeginDrain()
	time.Sleep(20 * time.Millisecond)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelCtx()
	if err := hs.Shutdown(ctx); err != nil {
		res.fail("phase D: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		res.fail("phase D: server drain: %v", err)
	}
	wg.Wait()

	p.Runs = completed + shed + refused + lost
	p.Fallbacks = uint64(shed)
	if lost != 0 {
		res.fail("phase D lost %d accepted sessions", lost)
	}
	if completed == 0 {
		res.fail("phase D completed no sessions before the drain — storm never started")
	}
	p.Detail = fmt.Sprintf("completed %d, shed %d, refused %d, lost %d", completed, shed, refused, lost)
	return p, nil
}
