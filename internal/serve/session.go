package serve

import (
	"sync"
	"time"
)

// State is a session's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	StateExpired   State = "expired"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateExpired
}

// maxHistory bounds the replayed event backlog per session; a streaming
// client that attaches late sees at most this many buffered events
// before the live feed.
const maxHistory = 256

// Session is one profiling submission: the per-request state machine
// the scheduler drives and the HTTP layer observes. Identical
// submissions may share one underlying job (batching); each still gets
// its own Session, deadline and event stream.
type Session struct {
	ID  string
	Req *Request
	Key string

	mu       sync.Mutex
	state    State
	cached   bool // served straight from the outcome cache
	shared   bool // coalesced onto an already-pending identical job
	outcome  *Outcome
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	deadline time.Time // zero = none
	timer    *time.Timer
	subs     map[chan Event]bool
	history  []Event
	done     chan struct{}

	// detach unhooks the session from its job on cancel/expiry; set by
	// the scheduler at submit time.
	detach func(*Session)
	// onFinish, when set, records the terminal state. finish runs it
	// before publishing the done event and closing Done, so a subscriber
	// or Done waiter told the session finished finds it already
	// recorded. Set before the session is shared.
	onFinish func(state State, out *Outcome, e2e time.Duration)
}

func newSession(id string, req *Request) *Session {
	s := &Session{
		ID:      id,
		Req:     req,
		Key:     req.Key(),
		state:   StateQueued,
		created: time.Now(),
		subs:    make(map[chan Event]bool),
		done:    make(chan struct{}),
	}
	if req.DeadlineMs > 0 {
		s.deadline = s.created.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	return s
}

// Done is closed once the session reaches a terminal state.
func (s *Session) Done() <-chan struct{} { return s.done }

// State returns the current state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Result returns the outcome and error once terminal (nil, nil before).
func (s *Session) Result() (*Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outcome, s.err
}

// Status is the JSON shape of a session's observable state.
type Status struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Request  string  `json:"request"`
	Cached   bool    `json:"cached,omitempty"`
	Shared   bool    `json:"shared,omitempty"`
	Error    string  `json:"error,omitempty"`
	QueuedMs float64 `json:"queued_ms"`
	RunMs    float64 `json:"run_ms,omitempty"`
	Samples  int     `json:"samples,omitempty"`
	Cycles   uint64  `json:"cycles,omitempty"`
	CommMsgs uint64  `json:"comm_messages,omitempty"`
}

// Status snapshots the session for the HTTP status endpoint.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID: s.ID, State: s.state, Request: s.Req.Summary(),
		Cached: s.cached, Shared: s.shared,
	}
	if s.err != nil {
		st.Error = s.err.Error()
	}
	switch {
	case !s.started.IsZero():
		st.QueuedMs = s.started.Sub(s.created).Seconds() * 1000
	case !s.finished.IsZero():
		st.QueuedMs = s.finished.Sub(s.created).Seconds() * 1000
	default:
		st.QueuedMs = time.Since(s.created).Seconds() * 1000
	}
	if !s.started.IsZero() {
		end := s.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMs = end.Sub(s.started).Seconds() * 1000
	}
	if s.outcome != nil {
		st.Samples = s.outcome.Samples
		st.Cycles = s.outcome.Stats.TotalCycles
		st.CommMsgs = s.outcome.Stats.CommMessages
	}
	return st
}

// Subscribe attaches an event stream: buffered history first, then live
// events. The returned cancel func detaches the subscriber.
func (s *Session) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, maxHistory+16)
	s.mu.Lock()
	for _, ev := range s.history {
		ch <- ev // buffered: history fits by construction
	}
	terminal := s.state.Terminal()
	if !terminal {
		s.subs[ch] = true
	}
	s.mu.Unlock()
	if terminal {
		close(ch)
		return ch, func() {}
	}
	return ch, func() {
		s.mu.Lock()
		if s.subs[ch] {
			delete(s.subs, ch)
			close(ch)
		}
		s.mu.Unlock()
	}
}

// publish fans an event out to subscribers without blocking: a consumer
// that stopped draining loses events rather than stalling the pipeline
// goroutine.
func (s *Session) publish(ev Event) {
	ev.Session = s.ID
	s.mu.Lock()
	if len(s.history) < maxHistory {
		s.history = append(s.history, ev)
	}
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	s.mu.Unlock()
}

// markShared records that the session coalesced onto an existing job.
func (s *Session) markShared() {
	s.mu.Lock()
	s.shared = true
	s.mu.Unlock()
}

// markRunning transitions queued → running (no-op in any other state).
func (s *Session) markRunning() {
	s.mu.Lock()
	if s.state == StateQueued {
		s.state = StateRunning
		s.started = time.Now()
	}
	s.mu.Unlock()
	s.publish(Event{Type: "phase", Phase: "scheduled", State: string(StateRunning)})
}

// finish moves the session to a terminal state, records the outcome,
// stops the deadline timer, runs onFinish, notifies subscribers and
// closes Done. Only the first terminal transition wins.
func (s *Session) finish(state State, out *Outcome, err error, cached bool) bool {
	s.mu.Lock()
	if s.state.Terminal() {
		s.mu.Unlock()
		return false
	}
	s.state = state
	s.outcome = out
	s.err = err
	s.cached = cached
	s.finished = time.Now()
	if s.timer != nil {
		s.timer.Stop()
	}
	e2e := s.finished.Sub(s.created)
	s.mu.Unlock()
	if s.onFinish != nil {
		s.onFinish(state, out, e2e)
	}

	ev := Event{Type: "done", State: string(state)}
	if err != nil {
		ev.Err = err.Error()
	}
	if out != nil {
		ev.Samples = out.Samples
		ev.Cycles = out.Stats.TotalCycles
	}
	s.publish(ev)

	s.mu.Lock()
	for ch := range s.subs {
		delete(s.subs, ch)
		close(ch)
	}
	s.mu.Unlock()
	close(s.done)
	return true
}

// Cancel terminates the session from the client side. Work shared with
// other sessions keeps running; a job this session held alone is
// cancelled mid-run through the VM's cancellation hook.
func (s *Session) Cancel() bool {
	if !s.finish(StateCancelled, nil, nil, false) {
		return false
	}
	if s.detach != nil {
		s.detach(s)
	}
	return true
}

// expire enforces the session's deadline.
func (s *Session) expire() {
	if !s.finish(StateExpired, nil, errDeadline, false) {
		return
	}
	if s.detach != nil {
		s.detach(s)
	}
}
