// Package super is the host-level runner supervisor: it owns every
// gobert runner subprocess the serving stack launches and extends the
// fault model's "faults change counters, never output" invariant from
// the modeled network up to the OS process level.
//
// A supervised execution attempt can end five ways: a valid reply
// (success — program-level RunErr included, since the interpreter
// reports the same one), a deterministic runner rejection (stale
// fingerprint, bad spec — retrying cannot help), a crash (the process
// died mid-write: SIGKILL, OOM, garbage on stdout), a wall-clock
// timeout (the supervisor SIGKILLs the hung runner), or a client
// cancellation. Crashes and timeouts are retried under the same
// bounded-exponential-backoff discipline fault.RetryPolicy codifies for
// the modeled network; when the budget is exhausted — or a per-program
// circuit breaker has tripped after repeated failures — the run falls
// back to the in-process interpreter backend, which is bit-identical to
// the compiled runner by the PR 8 differential guarantee (DESIGN §9).
// A flaky runner therefore degrades throughput, never correctness.
package super

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/gobert"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/gobe"
	"repro/internal/serve"
	"repro/internal/vm"
)

// Chaos configures deterministic crash injection: each launch may arm
// the runner's self-SIGKILL timer (MCHPL_RUNNER_CRASH_AFTER_US) with a
// seeded-PRNG delay, so a failing crash-chaos run replays exactly.
type Chaos struct {
	// Seed drives the splitmix64 PRNG choosing kill decisions and delays.
	Seed uint64
	// KillProb is the per-launch probability of arming the kill timer.
	KillProb float64
	// MinDelayUS/MaxDelayUS bound the armed delay in microseconds.
	MinDelayUS int64
	MaxDelayUS int64
	// MaxKills bounds armed launches per Exec call (0 = unlimited), so a
	// chaos run with MaxKills < the retry budget always converges on the
	// compiled backend rather than the fallback.
	MaxKills int
}

// Options configures a Supervisor. The zero value is production-ready.
type Options struct {
	// AttemptTimeout is the per-attempt wall-clock budget; a runner that
	// exceeds it is SIGKILLed and the attempt counts as a timeout
	// (0 = 2 minutes).
	AttemptTimeout time.Duration
	// Retry bounds restarts per execution: MaxRetries restarts after the
	// first attempt, waiting min(BackoffBase<<attempt, BackoffCap) *
	// BackoffUnit between attempts — the same semantics the modeled
	// network applies per message. Zero fields take fault.DefaultRetry;
	// a negative MaxRetries disables restarts entirely.
	Retry fault.RetryPolicy
	// BackoffUnit converts the policy's abstract latency units into wall
	// time (0 = 25ms).
	BackoffUnit time.Duration
	// BreakerThreshold trips a program's circuit breaker after this many
	// consecutive failed executions (0 = 3, negative disables breaking).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// single half-open probe is allowed through (0 = 30s).
	BreakerCooldown time.Duration
	// Chaos enables deterministic crash injection (tests/harness only).
	Chaos *Chaos

	// sleep is the backoff clock (tests stub it); nil = time.Sleep.
	sleep func(time.Duration)
}

// Target is one supervised runner binary plus its interpreter fallback.
type Target struct {
	// Key identifies the program for circuit-breaking (content-derived).
	Key string
	// Bin is the runner binary path.
	Bin string
	// Fallback executes the spec on the in-process interpreter with the
	// exact wire encoding a runner reply uses (gobe.InterpReply). Nil
	// means no fallback: exhausted retries surface as an error.
	Fallback func(*gobert.RunSpec) (*gobert.Reply, error)
}

// ForRunner derives the supervised target for a built runner.
func ForRunner(r *gobe.Runner) Target {
	sum := sha256.Sum256([]byte(r.Source))
	return Target{
		Key: fmt.Sprintf("%s:%x", r.Name, sum[:8]),
		Bin: r.Bin,
		Fallback: func(spec *gobert.RunSpec) (*gobert.Reply, error) {
			return gobe.InterpReply(r.Name, r.Source, r.Opts, spec)
		},
	}
}

// StatsSnapshot is the supervisor's counter state at one instant.
type StatsSnapshot struct {
	Launches             uint64 `json:"launches"`
	Restarts             uint64 `json:"restarts"`
	Crashes              uint64 `json:"crashes"`
	SigKills             uint64 `json:"sigkills"`
	Timeouts             uint64 `json:"timeouts"`
	PermanentFailures    uint64 `json:"permanent_failures"`
	Cancelled            uint64 `json:"cancelled"`
	Fallbacks            uint64 `json:"fallbacks"`
	BuildFallbacks       uint64 `json:"build_fallbacks"`
	ChaosKillsArmed      uint64 `json:"chaos_kills_armed"`
	BreakerTrips         uint64 `json:"breaker_trips"`
	BreakerProbes        uint64 `json:"breaker_probes"`
	BreakerCloses        uint64 `json:"breaker_closes"`
	BreakerShortCircuits uint64 `json:"breaker_short_circuits"`
	BreakersOpen         int    `json:"breakers_open"`
}

// Supervisor owns runner subprocesses: timeouts, restart backoff, and
// per-program circuit breakers. Safe for concurrent use.
type Supervisor struct {
	opts Options

	launches             atomic.Uint64
	restarts             atomic.Uint64
	crashes              atomic.Uint64
	sigKills             atomic.Uint64
	timeouts             atomic.Uint64
	permanent            atomic.Uint64
	cancelled            atomic.Uint64
	fallbacks            atomic.Uint64
	buildFallbacks       atomic.Uint64
	chaosKills           atomic.Uint64
	breakerTrips         atomic.Uint64
	breakerProbes        atomic.Uint64
	breakerCloses        atomic.Uint64
	breakerShortCircuits atomic.Uint64

	mu       sync.Mutex
	breakers map[string]*breaker

	rngMu sync.Mutex
	rng   uint64
}

// New builds a supervisor; zero Options fields take their defaults.
func New(opts Options) *Supervisor {
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 2 * time.Minute
	}
	noRetry := opts.Retry.MaxRetries < 0
	opts.Retry = opts.Retry.Normalized()
	if noRetry {
		opts.Retry.MaxRetries = 0
	}
	if opts.BackoffUnit <= 0 {
		opts.BackoffUnit = 25 * time.Millisecond
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 30 * time.Second
	}
	if opts.sleep == nil {
		opts.sleep = time.Sleep
	}
	s := &Supervisor{opts: opts, breakers: make(map[string]*breaker)}
	if opts.Chaos != nil {
		s.rng = opts.Chaos.Seed
	}
	return s
}

// Stats snapshots the supervisor counters.
func (s *Supervisor) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		Launches:             s.launches.Load(),
		Restarts:             s.restarts.Load(),
		Crashes:              s.crashes.Load(),
		SigKills:             s.sigKills.Load(),
		Timeouts:             s.timeouts.Load(),
		PermanentFailures:    s.permanent.Load(),
		Cancelled:            s.cancelled.Load(),
		Fallbacks:            s.fallbacks.Load(),
		BuildFallbacks:       s.buildFallbacks.Load(),
		ChaosKillsArmed:      s.chaosKills.Load(),
		BreakerTrips:         s.breakerTrips.Load(),
		BreakerProbes:        s.breakerProbes.Load(),
		BreakerCloses:        s.breakerCloses.Load(),
		BreakerShortCircuits: s.breakerShortCircuits.Load(),
	}
	s.mu.Lock()
	for _, b := range s.breakers {
		if b.state == breakerOpen {
			snap.BreakersOpen++
		}
	}
	s.mu.Unlock()
	return snap
}

// AuxMetrics exposes the counters in the shape serve.Options.AuxMetrics
// expects (deterministic key set, rendered sorted).
func (s *Supervisor) AuxMetrics() map[string]float64 {
	snap := s.Stats()
	return map[string]float64{
		"super_launches_total":               float64(snap.Launches),
		"super_restarts_total":               float64(snap.Restarts),
		"super_crashes_total":                float64(snap.Crashes),
		"super_sigkills_total":               float64(snap.SigKills),
		"super_timeouts_total":               float64(snap.Timeouts),
		"super_permanent_failures_total":     float64(snap.PermanentFailures),
		"super_cancelled_total":              float64(snap.Cancelled),
		"super_fallbacks_total":              float64(snap.Fallbacks),
		"super_build_fallbacks_total":        float64(snap.BuildFallbacks),
		"super_chaos_kills_armed_total":      float64(snap.ChaosKillsArmed),
		"super_breaker_trips_total":          float64(snap.BreakerTrips),
		"super_breaker_probes_total":         float64(snap.BreakerProbes),
		"super_breaker_closes_total":         float64(snap.BreakerCloses),
		"super_breaker_short_circuits_total": float64(snap.BreakerShortCircuits),
		"super_breakers_open":                float64(snap.BreakersOpen),
	}
}

// Exec runs one RunSpec on the target under full supervision: timeout,
// crash restarts with backoff, circuit breaking, interpreter fallback.
func (s *Supervisor) Exec(t Target, spec *gobert.RunSpec) (*gobert.Reply, error) {
	return s.exec(t, spec, nil)
}

// Outcome runs the full serve.Execute pipeline inside the runner, with
// the supervisor's recovery ladder around it, and decodes the runner's
// outcome. Setting cancel SIGKILLs the runner mid-run.
func (s *Supervisor) Outcome(r *gobe.Runner, req *serve.Request, cancel *atomic.Bool) (*serve.Outcome, error) {
	req2 := *req
	req2.Name, req2.Source = r.Name, r.Source
	reply, err := s.exec(ForRunner(r), &gobert.RunSpec{Mode: "outcome", Request: &req2}, cancel)
	if err != nil {
		return nil, err
	}
	if reply.RunErr != "" {
		return nil, errors.New(reply.RunErr)
	}
	var out serve.Outcome
	if err := json.Unmarshal(reply.Outcome, &out); err != nil {
		return nil, fmt.Errorf("decoding runner outcome: %v", err)
	}
	out.ProfileJSON = reply.Profile
	return &out, nil
}

// ServeRun adapts the supervisor to serve.Options.Run: every scheduled
// job builds (content-hash cached) and executes the compiled runner
// under supervision. A build failure — most commonly a missing Go
// toolchain — degrades to the in-process interpreter, which serves the
// identical bytes. Mid-run cancellation SIGKILLs the runner.
func (s *Supervisor) ServeRun() func(*serve.Request, *serve.RunControl) (*serve.Outcome, error) {
	return func(req *serve.Request, ctl *serve.RunControl) (*serve.Outcome, error) {
		r, err := gobe.Build(req.Name, req.Source, compile.Options{})
		if err != nil {
			s.buildFallbacks.Add(1)
			return serve.Execute(req, ctl)
		}
		var cancel *atomic.Bool
		if ctl != nil {
			cancel = ctl.Cancel
		}
		return s.Outcome(r, req, cancel)
	}
}

func (s *Supervisor) exec(t Target, spec *gobert.RunSpec, cancel *atomic.Bool) (*gobert.Reply, error) {
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if t.Key == "" {
		t.Key = t.Bin
	}
	if !s.admit(t.Key) {
		s.breakerShortCircuits.Add(1)
		return s.fallback(t, spec, errors.New("circuit breaker open"))
	}
	pol := s.opts.Retry
	kills := 0
	var lastErr error
	for attempt := 0; ; attempt++ {
		reply, v := s.runOnce(t, in, cancel, &kills)
		switch v.class {
		case attemptOK:
			s.noteSuccess(t.Key)
			return reply, nil
		case attemptCancelled:
			// A client cancellation says nothing about the target's
			// health: leave the breaker alone.
			s.cancelled.Add(1)
			return nil, errors.New(vm.ErrCancelled)
		case attemptPermanent:
			// The runner rejected the work deterministically (stale
			// fingerprint, bad spec): restarting cannot help.
			s.permanent.Add(1)
			s.noteFailure(t.Key)
			return s.fallback(t, spec, v.err)
		}
		lastErr = v.err
		if attempt >= pol.MaxRetries {
			s.noteFailure(t.Key)
			return s.fallback(t, spec, lastErr)
		}
		s.restarts.Add(1)
		s.opts.sleep(backoffWait(pol, attempt) * s.opts.BackoffUnit)
	}
}

// backoffWait returns the wait before restart attempt+1 in policy units:
// min(BackoffBase << attempt, BackoffCap).
func backoffWait(pol fault.RetryPolicy, attempt int) time.Duration {
	units := pol.BackoffCap
	if attempt < 30 {
		if u := pol.BackoffBase << attempt; u < units {
			units = u
		}
	}
	return time.Duration(units)
}

type attemptClass int

const (
	attemptOK attemptClass = iota
	attemptPermanent
	attemptCrash
	attemptTimeout
	attemptCancelled
)

type verdict struct {
	class attemptClass
	err   error
}

// runOnce launches the runner binary for one attempt and classifies how
// it ended. The reply on stdout is authoritative: a decodable reply with
// no runner-internal error is success regardless of exit status; an
// undecodable reply means the process died mid-write (crash).
func (s *Supervisor) runOnce(t Target, in []byte, cancel *atomic.Bool, kills *int) (*gobert.Reply, verdict) {
	cmd := exec.Command(t.Bin)
	cmd.Stdin = bytes.NewReader(in)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	// A killed runner can leave grandchildren holding its stdout pipe;
	// force-close the pipes shortly after the process itself exits so
	// Wait can never hang on an orphan.
	cmd.WaitDelay = time.Second
	if c := s.opts.Chaos; c != nil && (c.MaxKills <= 0 || *kills < c.MaxKills) && s.chance(c.KillProb) {
		cmd.Env = append(os.Environ(), fmt.Sprintf("MCHPL_RUNNER_CRASH_AFTER_US=%d", s.chaosDelay()))
		*kills++
		s.chaosKills.Add(1)
	}
	s.launches.Add(1)
	if err := cmd.Start(); err != nil {
		// The binary itself is unlaunchable (deleted, not executable):
		// restarting cannot help.
		return nil, verdict{attemptPermanent, fmt.Errorf("launching runner: %w", err)}
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	timer := time.NewTimer(s.opts.AttemptTimeout)
	defer timer.Stop()
	var pollC <-chan time.Time
	if cancel != nil {
		poll := time.NewTicker(5 * time.Millisecond)
		defer poll.Stop()
		pollC = poll.C
	}
	for {
		select {
		case werr := <-done:
			return s.classify(out.Bytes(), werr)
		case <-timer.C:
			_ = cmd.Process.Kill()
			<-done
			s.timeouts.Add(1)
			return nil, verdict{attemptTimeout, fmt.Errorf("runner exceeded %s wall-clock budget", s.opts.AttemptTimeout)}
		case <-pollC:
			if cancel.Load() {
				_ = cmd.Process.Kill()
				<-done
				return nil, verdict{class: attemptCancelled}
			}
		}
	}
}

func (s *Supervisor) classify(stdout []byte, werr error) (*gobert.Reply, verdict) {
	var reply gobert.Reply
	if err := json.Unmarshal(stdout, &reply); err == nil {
		if reply.Err != "" {
			return nil, verdict{attemptPermanent, fmt.Errorf("runner: %s", reply.Err)}
		}
		return &reply, verdict{class: attemptOK}
	}
	// No decodable reply: the process died before completing the
	// protocol (SIGKILL mid-write, OOM kill, corrupted output).
	s.crashes.Add(1)
	msg := "runner produced no decodable reply"
	if sig, ok := killedBySignal(werr); ok {
		msg = fmt.Sprintf("runner killed by %s", sig)
		if sig == "SIGKILL" {
			s.sigKills.Add(1)
		}
	} else if werr != nil {
		msg = fmt.Sprintf("runner crashed: %v", werr)
	}
	return nil, verdict{attemptCrash, errors.New(msg)}
}

func (s *Supervisor) fallback(t Target, spec *gobert.RunSpec, cause error) (*gobert.Reply, error) {
	if t.Fallback == nil {
		return nil, fmt.Errorf("runner %s failed with no fallback: %w", t.Key, cause)
	}
	s.fallbacks.Add(1)
	return t.Fallback(spec)
}

// Circuit breaker: closed (counting consecutive failed executions) →
// open (every request short-circuits to the fallback) → half-open after
// the cooldown (exactly one probe runs the compiled path; success
// closes, failure reopens).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	state    breakerState
	consec   int
	openedAt time.Time
}

// admit reports whether the compiled path may run for key, performing
// the open → half-open transition when the cooldown has elapsed.
func (s *Supervisor) admit(key string) bool {
	if s.opts.BreakerThreshold < 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		b = &breaker{}
		s.breakers[key] = b
	}
	switch b.state {
	case breakerOpen:
		if time.Since(b.openedAt) >= s.opts.BreakerCooldown {
			b.state = breakerHalfOpen
			s.breakerProbes.Add(1)
			return true
		}
		return false
	case breakerHalfOpen:
		// One probe at a time; everyone else keeps falling back.
		return false
	}
	return true
}

func (s *Supervisor) noteSuccess(key string) {
	if s.opts.BreakerThreshold < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		return
	}
	if b.state == breakerHalfOpen {
		s.breakerCloses.Add(1)
	}
	b.state = breakerClosed
	b.consec = 0
}

func (s *Supervisor) noteFailure(key string) {
	if s.opts.BreakerThreshold < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		b = &breaker{}
		s.breakers[key] = b
	}
	b.consec++
	switch {
	case b.state == breakerHalfOpen:
		// The probe failed: reopen for another cooldown.
		b.state = breakerOpen
		b.openedAt = time.Now()
	case b.state == breakerClosed && b.consec >= s.opts.BreakerThreshold:
		b.state = breakerOpen
		b.openedAt = time.Now()
		s.breakerTrips.Add(1)
	}
}

// chance draws one uniform float in [0,1) from the chaos PRNG
// (splitmix64, the same generator internal/fault uses) and compares
// against p; p <= 0 and p >= 1 short-circuit without consuming state.
func (s *Supervisor) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(s.next()>>11)/(1<<53) < p
}

func (s *Supervisor) next() uint64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *Supervisor) chaosDelay() int64 {
	c := s.opts.Chaos
	lo, hi := c.MinDelayUS, c.MaxDelayUS
	if hi < lo {
		hi = lo
	}
	if hi == lo {
		return lo
	}
	return lo + int64(s.next()%uint64(hi-lo+1))
}
