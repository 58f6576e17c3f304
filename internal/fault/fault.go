// Package fault is a deterministic, seed-driven fault injector for the
// modeled communication runtime (internal/comm) and the VM's remote
// spawns. A Spec — parsed from a compact string such as
//
//	loss=0.01,dup=0.005,delay=3xCommLatency,locale-slow=2:4x,locale-fail=3@tick500
//
// — describes message loss, duplication, delay, per-locale slowdown and
// unrecoverable locale failure. The injector draws from a self-contained
// splitmix64 PRNG, so a fixed seed reproduces the exact same fault
// schedule on every run regardless of Go version or platform.
//
// Faults never change program output: the runtime always delivers the
// canonical data in the end. Loss triggers bounded retransmission with
// exponential backoff; exhausting the retry budget declares a timeout
// whose modeled cost is charged and the transfer still completes (the
// comm model is cost-only). A failed locale is the one unrecoverable
// fault: messages touching it time out immediately, and the schedulers
// degrade gracefully by running its chunks on the spawning locale
// (FailedLocaleFallbacks counts those).
//
// All latencies are expressed in integer CommLatency units so the
// injector needs no knowledge of the VM's absolute cycle costs; the VM
// multiplies by its own CommLatency when charging.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Bounds on parsed magnitudes: large enough for any plausible experiment,
// small enough that modeled costs cannot overflow the VM's cycle math.
const (
	maxMult   = 1 << 20 // delay multipliers and slow factors
	maxLocale = 1 << 20 // locale indices
)

// Spec is one parsed fault specification. The zero value (with
// FailLocale -1) injects nothing.
type Spec struct {
	// Loss is the per-message drop probability in [0, 1]; each drop costs
	// a retry (or, past the retry budget, a timeout).
	Loss float64
	// Dup is the per-message duplication probability in [0, 1]; the
	// redundant copy is suppressed at the receiver for one latency unit.
	Dup float64
	// DelayProb/DelayMult delay a message by DelayMult extra CommLatency
	// units with probability DelayProb (1.0 when the spec omits it).
	DelayProb float64
	DelayMult int64
	// SlowLocale multiplies the latency of every message touching a
	// locale: factor m charges m-1 extra units.
	SlowLocale map[int]int64
	// HasFail arms locale failure: locale FailLocale dies once the
	// injector's tick reaches FailTick (ticks advance one per examined
	// message). The zero value keeps every locale alive.
	HasFail    bool
	FailLocale int
	FailTick   uint64
}

// Zero reports whether the spec injects no faults at all.
func (s Spec) Zero() bool {
	return s.Loss == 0 && s.Dup == 0 && (s.DelayMult == 0 || s.DelayProb == 0) &&
		len(s.SlowLocale) == 0 && !s.HasFail
}

// ParseSpec parses the comma-separated fault grammar:
//
//	loss=P                 per-message drop probability
//	dup=P                  per-message duplication probability
//	delay=[P:]NxCommLatency  delay by N latency units (probability P, default 1)
//	locale-slow=L:Mx       every message touching locale L is M times slower
//	locale-fail=L[@tickT]  locale L dies at injector tick T (default 0)
//
// An empty string yields the zero (fault-free) spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("fault: %q: want key=value", part)
		}
		switch key {
		case "loss":
			p, err := parseProb(val)
			if err != nil {
				return spec, fmt.Errorf("fault: loss: %w", err)
			}
			spec.Loss = p
		case "dup":
			p, err := parseProb(val)
			if err != nil {
				return spec, fmt.Errorf("fault: dup: %w", err)
			}
			spec.Dup = p
		case "delay":
			prob, mult, err := parseDelay(val)
			if err != nil {
				return spec, fmt.Errorf("fault: delay: %w", err)
			}
			spec.DelayProb, spec.DelayMult = prob, mult
		case "locale-slow":
			loc, factor, err := parseSlow(val)
			if err != nil {
				return spec, fmt.Errorf("fault: locale-slow: %w", err)
			}
			if factor > 1 { // factor 1 is a no-op
				if spec.SlowLocale == nil {
					spec.SlowLocale = make(map[int]int64)
				}
				spec.SlowLocale[loc] = factor
			}
		case "locale-fail":
			loc, tick, err := parseFail(val)
			if err != nil {
				return spec, fmt.Errorf("fault: locale-fail: %w", err)
			}
			spec.HasFail, spec.FailLocale, spec.FailTick = true, loc, tick
		default:
			return spec, fmt.Errorf("fault: unknown key %q", key)
		}
	}
	return spec, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a probability", v)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %q outside [0, 1]", v)
	}
	return p, nil
}

// parseDelay accepts "NxCommLatency" and "P:NxCommLatency".
func parseDelay(v string) (prob float64, mult int64, err error) {
	prob = 1
	if pre, rest, ok := strings.Cut(v, ":"); ok {
		if prob, err = parseProb(pre); err != nil {
			return 0, 0, err
		}
		v = rest
	}
	num, ok := strings.CutSuffix(v, "xCommLatency")
	if !ok {
		return 0, 0, fmt.Errorf("%q: want NxCommLatency", v)
	}
	mult, err = strconv.ParseInt(num, 10, 64)
	if err != nil || mult < 1 || mult > maxMult {
		return 0, 0, fmt.Errorf("multiplier %q outside [1, %d]", num, maxMult)
	}
	return prob, mult, nil
}

// parseSlow accepts "L:Mx".
func parseSlow(v string) (loc int, factor int64, err error) {
	l, rest, ok := strings.Cut(v, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q: want locale:Nx", v)
	}
	loc, err = strconv.Atoi(l)
	if err != nil || loc < 0 || loc > maxLocale {
		return 0, 0, fmt.Errorf("locale %q outside [0, %d]", l, maxLocale)
	}
	num, ok := strings.CutSuffix(rest, "x")
	if !ok {
		return 0, 0, fmt.Errorf("%q: want locale:Nx", v)
	}
	factor, err = strconv.ParseInt(num, 10, 64)
	if err != nil || factor < 1 || factor > maxMult {
		return 0, 0, fmt.Errorf("factor %q outside [1, %d]", num, maxMult)
	}
	return loc, factor, nil
}

// parseFail accepts "L" and "L@tickT".
func parseFail(v string) (loc int, tick uint64, err error) {
	l, rest, has := strings.Cut(v, "@")
	loc, err = strconv.Atoi(l)
	if err != nil || loc < 0 || loc > maxLocale {
		return 0, 0, fmt.Errorf("locale %q outside [0, %d]", l, maxLocale)
	}
	if has {
		num, ok := strings.CutPrefix(rest, "tick")
		if !ok {
			return 0, 0, fmt.Errorf("%q: want locale@tickN", v)
		}
		tick, err = strconv.ParseUint(num, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("tick %q is not a number", rest)
		}
	}
	return loc, tick, nil
}

// String renders the canonical form of the spec: active faults only, in
// fixed key order, with minimal float formatting — ParseSpec(s.String())
// round-trips (the fuzzer pins this).
func (s Spec) String() string {
	var parts []string
	f := func(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }
	if s.Loss > 0 {
		parts = append(parts, "loss="+f(s.Loss))
	}
	if s.Dup > 0 {
		parts = append(parts, "dup="+f(s.Dup))
	}
	if s.DelayMult > 0 && s.DelayProb > 0 {
		if s.DelayProb >= 1 {
			parts = append(parts, fmt.Sprintf("delay=%dxCommLatency", s.DelayMult))
		} else {
			parts = append(parts, fmt.Sprintf("delay=%s:%dxCommLatency", f(s.DelayProb), s.DelayMult))
		}
	}
	locs := make([]int, 0, len(s.SlowLocale))
	for l := range s.SlowLocale {
		locs = append(locs, l)
	}
	sort.Ints(locs)
	for _, l := range locs {
		parts = append(parts, fmt.Sprintf("locale-slow=%d:%dx", l, s.SlowLocale[l]))
	}
	if s.HasFail {
		parts = append(parts, fmt.Sprintf("locale-fail=%d@tick%d", s.FailLocale, s.FailTick))
	}
	return strings.Join(parts, ",")
}

// RetryPolicy bounds the retransmission loop the comm runtime runs when
// the injector drops a message. All latencies are in CommLatency units.
type RetryPolicy struct {
	// MaxRetries bounds retransmissions per message; one more drop after
	// the budget declares a timeout.
	MaxRetries int
	// BackoffBase is the first backoff wait; it doubles per retry up to
	// BackoffCap (bounded exponential backoff).
	BackoffBase int64
	BackoffCap  int64
	// TimeoutUnits is the modeled cost of a declared timeout.
	TimeoutUnits int64
}

// DefaultRetry returns the default policy: 6 retries, backoff 1 -> 16,
// timeout cost 32 latency units.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxRetries: 6, BackoffBase: 1, BackoffCap: 16, TimeoutUnits: 32}
}

// Normalized fills zero (or negative) fields from the defaults and
// returns the completed policy. Exported so process-level supervisors
// (internal/super) can reuse the same bounded-exponential-backoff
// semantics the modeled network applies per message.
func (p RetryPolicy) Normalized() RetryPolicy {
	d := DefaultRetry()
	if p.MaxRetries <= 0 {
		p.MaxRetries = d.MaxRetries
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = d.BackoffBase
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = d.BackoffCap
	}
	if p.TimeoutUnits <= 0 {
		p.TimeoutUnits = d.TimeoutUnits
	}
	return p
}

// Stats accumulates what the injector did. One Stats instance serves a
// whole run: comm.Stats and vm.Stats both point at it.
type Stats struct {
	Sends                 int64 // messages examined
	Retries               int64 // retransmissions after a drop
	Timeouts              int64 // retry budget exhausted (or dead locale)
	DroppedMsgs           int64 // individual dropped transmissions
	DuplicatesSuppressed  int64 // redundant deliveries discarded
	DelayedMsgs           int64
	SlowedMsgs            int64 // messages touching a slow locale
	FailedLocaleFallbacks int64 // chunks rerouted off a dead locale
	ExtraLatUnits         int64 // total injected latency (CommLatency units)
}

// Render returns the canonical one-block text form (deterministic).
func (s *Stats) Render() string {
	return fmt.Sprintf("faults: sends %d retries %d timeouts %d dropped %d dup-suppressed %d delayed %d slowed %d fallbacks %d extra-latency %d units\n",
		s.Sends, s.Retries, s.Timeouts, s.DroppedMsgs, s.DuplicatesSuppressed,
		s.DelayedMsgs, s.SlowedMsgs, s.FailedLocaleFallbacks, s.ExtraLatUnits)
}

// Outcome is the injector's verdict for one message.
type Outcome struct {
	// ExtraLat is the injected latency in CommLatency units (retries,
	// backoff waits, delays, slow locales, timeouts). The data is always
	// delivered; only the modeled cost grows.
	ExtraLat int64
	// Retries is the number of retransmissions this message needed.
	Retries int64
	// Timeout reports that the retry budget was exhausted (or a dead
	// locale was involved) and the timeout cost was charged.
	Timeout bool
	// Duplicated reports a suppressed duplicate delivery.
	Duplicated bool
}

// splitmix64 is the PRNG state: stable across Go versions, one uint64.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws one uniform float in [0, 1) and compares against p.
// p <= 0 and p >= 1 short-circuit without consuming randomness, so fully
// deterministic specs (delay=NxCommLatency) stay seed-independent.
func (r *splitmix64) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.next()>>11)/(1<<53) < p
}

// Injector applies one Spec with one seed. Not safe for concurrent use;
// the VM's discrete-event scheduler serializes all calls.
type Injector struct {
	spec  Spec
	pol   RetryPolicy
	rng   splitmix64
	tick  uint64
	stats Stats
}

// NewInjector builds an injector with the default retry policy.
func NewInjector(spec Spec, seed uint64) *Injector {
	return &Injector{spec: spec, pol: DefaultRetry(), rng: splitmix64{s: seed}}
}

// SetRetry overrides the retry policy (zero fields keep their defaults).
func (i *Injector) SetRetry(p RetryPolicy) {
	if i == nil {
		return
	}
	i.pol = p.Normalized()
}

// Stats returns the shared accumulator (live, not a snapshot).
func (i *Injector) Stats() *Stats {
	if i == nil {
		return nil
	}
	return &i.stats
}

// Tick returns the number of messages examined so far.
func (i *Injector) Tick() uint64 {
	if i == nil {
		return 0
	}
	return i.tick
}

// LocaleDead reports whether loc has failed. Read-only: it does not
// advance the tick or consume randomness, so schedulers may poll it.
func (i *Injector) LocaleDead(loc int) bool {
	if i == nil {
		return false
	}
	return i.dead(loc)
}

func (i *Injector) dead(loc int) bool {
	return i.spec.HasFail && loc == i.spec.FailLocale && i.tick >= i.spec.FailTick
}

// NoteFallback records one chunk rerouted off a dead locale.
func (i *Injector) NoteFallback() {
	if i == nil {
		return
	}
	i.stats.FailedLocaleFallbacks++
}

// Send examines one message from locale `from` to locale `to` and
// returns the injected outcome. Every call advances the tick by one.
func (i *Injector) Send(from, to int) Outcome {
	var out Outcome
	if i == nil {
		return out
	}
	// The failure tick is compared against the pre-increment counter so
	// that the send which *reaches* FailTick still succeeds; the locale is
	// dead for every send after it.
	dead := i.dead(from) || i.dead(to)
	i.tick++
	i.stats.Sends++
	if dead {
		// A dead endpoint: the sender retransmits into the void and times
		// out immediately (no backoff loop — the failure detector already
		// knows). The model still delivers the canonical data.
		i.stats.DroppedMsgs++
		i.stats.Timeouts++
		out.Timeout = true
		out.ExtraLat += i.pol.TimeoutUnits
		i.stats.ExtraLatUnits += out.ExtraLat
		return out
	}
	if m := i.slowFactor(from, to); m > 1 {
		out.ExtraLat += m - 1
		i.stats.SlowedMsgs++
	}
	if i.spec.DelayMult > 0 && i.rng.chance(i.spec.DelayProb) {
		out.ExtraLat += i.spec.DelayMult
		i.stats.DelayedMsgs++
	}
	if i.spec.Dup > 0 && i.rng.chance(i.spec.Dup) {
		// The receiver pays one unit to receive and discard the copy.
		out.Duplicated = true
		out.ExtraLat++
		i.stats.DuplicatesSuppressed++
	}
	if i.spec.Loss > 0 {
		backoff := i.pol.BackoffBase
		for attempt := 0; i.rng.chance(i.spec.Loss); attempt++ {
			i.stats.DroppedMsgs++
			if attempt >= i.pol.MaxRetries {
				i.stats.Timeouts++
				out.Timeout = true
				out.ExtraLat += i.pol.TimeoutUnits
				break
			}
			i.stats.Retries++
			out.Retries++
			// Wait out the backoff, then pay the retransmission latency.
			out.ExtraLat += backoff + 1
			backoff *= 2
			if backoff > i.pol.BackoffCap {
				backoff = i.pol.BackoffCap
			}
		}
	}
	i.stats.ExtraLatUnits += out.ExtraLat
	return out
}

// slowFactor returns the largest slow multiplier among the endpoints.
func (i *Injector) slowFactor(from, to int) int64 {
	if len(i.spec.SlowLocale) == 0 {
		return 1
	}
	m := int64(1)
	if f := i.spec.SlowLocale[from]; f > m {
		m = f
	}
	if f := i.spec.SlowLocale[to]; f > m {
		m = f
	}
	return m
}
