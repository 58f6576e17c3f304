package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/postmortem"
	"repro/internal/views"
	"repro/internal/vm"
)

// RunFunc executes one normalized request (the scheduler's work
// function). The default is Execute; cmd/blamed substitutes the runner
// supervisor's ServeRun for the compiled backend.
type RunFunc func(*Request, *RunControl) (*Outcome, error)

// Options configures a Server.
type Options struct {
	// Workers sizes the scheduler pool (0 = 4).
	Workers int
	// CacheBytes bounds the outcome cache (0 = 256 MiB).
	CacheBytes int64
	// CacheShards is the shard count (0 = 16, rounded up to a power of
	// two).
	CacheShards int
	// MaxSessions bounds retained session metadata; the oldest finished
	// sessions are forgotten beyond it (0 = 4096).
	MaxSessions int
	// DefaultDeadline applies to submissions that set no deadline_ms
	// (0 = none).
	DefaultDeadline time.Duration
	// Run substitutes the pipeline execution function (nil = Execute).
	Run RunFunc
	// MaxQueue bounds distinct queued jobs; beyond it new submissions
	// are shed with a 503 (0 = unbounded).
	MaxQueue int
	// Journal is the path of the append-only outcome journal; outcomes
	// are replayed into the cache at boot and appended as they are
	// produced ("" = disabled).
	Journal string
	// AuxMetrics supplies extra gauges for /metrics (rendered as
	// blamed_<key>, sorted); nil = none.
	AuxMetrics func() map[string]float64
}

// Server is the blame-as-a-service front end: sessions, scheduler,
// cache, metrics, and the HTTP handlers tying them together.
type Server struct {
	opts    Options
	cache   *Cache
	sched   *Scheduler
	metrics *Metrics
	journal *Journal

	// draining rejects new submissions (503 + Retry-After) while
	// in-flight sessions finish; set by BeginDrain/Shutdown.
	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // insertion order, for bounded retention
	nextID   uint64
}

// New builds a Server and starts its scheduler workers. If a journal is
// configured, every intact record is replayed into the outcome cache
// first, so the server boots warm; a journal that cannot be opened is
// reported on stderr and disabled rather than failing the boot.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 4096
	}
	run := opts.Run
	if run == nil {
		run = Execute
	}
	s := &Server{
		opts:     opts,
		cache:    NewCache(opts.CacheBytes, opts.CacheShards),
		metrics:  NewMetrics(),
		sessions: make(map[string]*Session),
	}
	if opts.Journal != "" {
		j, err := OpenJournal(opts.Journal, func(key string, out *Outcome) {
			s.cache.Put(key, out)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: outcome journal disabled: %v\n", err)
		} else {
			s.journal = j
		}
	}
	s.sched = NewScheduler(opts.Workers, run)
	s.sched.SetMaxQueue(opts.MaxQueue)
	s.sched.onDone = func(j *job, out *Outcome, err error, wall time.Duration) {
		s.metrics.Executed(wall)
		if err == nil && out != nil && !j.req.NoCache {
			s.putOutcome(j.key, out)
		}
	}
	s.sched.Start()
	return s
}

// putOutcome inserts into the cache and appends to the journal (the
// journal is the cache's durable shadow: same key, same bytes).
func (s *Server) putOutcome(key string, out *Outcome) {
	s.cache.Put(key, out)
	if err := s.journal.Append(key, out); err != nil {
		fmt.Fprintf(os.Stderr, "serve: journal append: %v\n", err)
	}
}

// BeginDrain flips the server into drain mode: new submissions get 503
// + Retry-After while everything already admitted keeps running.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown is the ordered graceful stop: (1) drain — refuse new
// submissions, (2) close the scheduler — queued and running jobs finish
// and their sessions terminate, (3) flush and close the outcome
// journal. The context bounds the scheduler drain; on expiry the
// journal is still flushed before returning the context's error.
//
// The caller sequences the HTTP listener around this: stop accepting
// connections and let in-flight handlers (which may be streaming
// sessions the scheduler is still executing) complete between (1) and
// (2) — see cmd/blamed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.sched.Close()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if jerr := s.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

// Close drains the scheduler and closes the journal (Shutdown without
// a deadline).
func (s *Server) Close() {
	s.BeginDrain()
	s.sched.Close()
	s.journal.Close()
}

// Cache exposes the outcome cache (loadtest reporting).
func (s *Server) Cache() *Cache { return s.cache }

// Handler returns the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/sessions/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/diff", s.handleDiff)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// register adds a session under a fresh ID and prunes old finished
// sessions beyond the retention bound.
func (s *Server) register(sess *Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	sess.ID = fmt.Sprintf("s-%06d", s.nextID)
	s.sessions[sess.ID] = sess
	s.order = append(s.order, sess.ID)
	for len(s.sessions) > s.opts.MaxSessions {
		pruned := false
		for i, id := range s.order {
			old := s.sessions[id]
			if old == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
			if old.State().Terminal() {
				delete(s.sessions, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything is still live; let it grow
		}
	}
}

func (s *Server) session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// submitResponse is the POST /v1/submit reply.
type submitResponse struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Cached bool   `json:"cached"`
	Shared bool   `json:"shared,omitempty"`
}

// resultResponse is the full result payload.
type resultResponse struct {
	ID        string          `json:"id"`
	State     State           `json:"state"`
	Cached    bool            `json:"cached"`
	Text      string          `json:"text,omitempty"`
	Output    string          `json:"output,omitempty"`
	Profile   json.RawMessage `json:"profile,omitempty"`
	Stats     *vm.Stats       `json:"stats,omitempty"`
	Threshold uint64          `json:"threshold,omitempty"`
	Samples   int             `json:"samples,omitempty"`
	Error     string          `json:"error,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("submit")
	req, ok := s.decodeRequest(w, r, "submit")
	if !ok {
		return
	}
	if req.DeadlineMs == 0 && s.opts.DefaultDeadline > 0 {
		req.DeadlineMs = s.opts.DefaultDeadline.Milliseconds()
	}
	if s.draining.Load() {
		s.metrics.Shed("draining")
		s.metrics.IncError("submit")
		w.Header().Set("Retry-After", "5")
		writeAPIError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; retry against a fresh instance")
		return
	}
	sess := newSession("", req)
	sess.onFinish = s.metrics.SessionDone
	s.register(sess)

	if !req.NoCache {
		if out, hit := s.cache.Get(sess.Key); hit {
			sess.finish(StateDone, out, nil, true)
			s.respondSubmit(w, r, sess)
			return
		}
	}
	if err := s.sched.Submit(sess); err != nil {
		// The session is already finished with err; report why it was
		// refused. Both causes are transient capacity conditions → 503.
		s.metrics.IncError("submit")
		w.Header().Set("Retry-After", "1")
		if errors.Is(err, errQueueFull) {
			s.metrics.Shed("queue_full")
			writeAPIError(w, http.StatusServiceUnavailable, "overloaded", err.Error())
		} else {
			s.metrics.Shed("closed")
			writeAPIError(w, http.StatusServiceUnavailable, "draining", err.Error())
		}
		return
	}
	s.respondSubmit(w, r, sess)
}

func (s *Server) respondSubmit(w http.ResponseWriter, r *http.Request, sess *Session) {
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-sess.Done():
			s.writeResult(w, r, sess)
		case <-r.Context().Done():
			// Client went away: the session keeps running (it may be
			// shared); nothing to write.
		}
		return
	}
	st := sess.Status()
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: sess.ID, State: st.State, Cached: st.Cached, Shared: st.Shared,
	})
}

// decodeRequest parses and normalizes the JSON request body shared by
// submit and predict.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, endpoint string) (*Request, bool) {
	var req Request
	body := http.MaxBytesReader(w, r.Body, MaxSourceBytes+(64<<10))
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.IncError(endpoint)
		writeError(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return nil, false
	}
	if err := req.Normalize(); err != nil {
		s.metrics.IncError(endpoint)
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return &req, true
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("sessions")
	s.mu.Lock()
	ids := append([]string(nil), s.order...) // registration order, oldest first
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if sess := s.session(id); sess != nil {
			out = append(out, sess.Status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("status")
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("result")
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-sess.Done():
		case <-r.Context().Done():
			return
		}
	}
	if !sess.State().Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("session %s is %s", sess.ID, sess.State()))
		return
	}
	s.writeResult(w, r, sess)
}

func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, sess *Session) {
	out, err := sess.Result()
	switch r.URL.Query().Get("format") {
	case "text":
		if out == nil {
			writeError(w, http.StatusUnprocessableEntity, resultErr(sess, err))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(out.Text))
		return
	case "profile":
		if out == nil || out.ProfileJSON == nil {
			writeError(w, http.StatusUnprocessableEntity, resultErr(sess, err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out.ProfileJSON)
		return
	case "output":
		if out == nil {
			writeError(w, http.StatusUnprocessableEntity, resultErr(sess, err))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(out.Output))
		return
	}
	resp := resultResponse{ID: sess.ID, State: sess.State()}
	sess.mu.Lock()
	resp.Cached = sess.cached
	sess.mu.Unlock()
	if err != nil {
		resp.Error = err.Error()
	}
	if out != nil {
		resp.Text = out.Text
		resp.Output = out.Output
		resp.Profile = json.RawMessage(out.ProfileJSON)
		resp.Stats = &out.Stats
		resp.Threshold = out.Threshold
		resp.Samples = out.Samples
	}
	writeJSON(w, http.StatusOK, resp)
}

func resultErr(sess *Session, err error) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("session %s (%s) has no result payload", sess.ID, sess.State())
}

// handleStream streams session events as SSE (default) or NDJSON
// (?format=ndjson): phase transitions, sampler progress, incremental
// blame ranks, and a final done event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("stream")
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	ndjson := r.URL.Query().Get("format") == "ndjson"
	fl, canFlush := w.(http.Flusher)
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)

	ch, cancel := sess.Subscribe()
	defer cancel()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ndjson {
				if enc.Encode(ev) != nil {
					return
				}
			} else {
				data, err := json.Marshal(ev)
				if err != nil {
					return
				}
				if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
					return
				}
			}
			if canFlush {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("cancel")
	sess := s.session(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	cancelled := sess.Cancel()
	writeJSON(w, http.StatusOK, map[string]any{
		"id": sess.ID, "state": sess.State(), "cancelled": cancelled,
	})
}

// handlePredict runs the static cost engine only — no calibration run,
// no profiled run — so it executes inline (no queue) and still goes
// through the outcome cache.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("predict")
	req, ok := s.decodeRequest(w, r, "predict")
	if !ok {
		return
	}
	if req.View != "static" && req.View != "lint-json" {
		// Submit decoded a default view; predict is execution-free by
		// definition.
		req.View = "static"
	}
	key := req.Key()
	start := time.Now()
	out, hit := (*Outcome)(nil), false
	if !req.NoCache {
		out, hit = s.cache.Get(key)
	}
	if !hit {
		var err error
		out, err = Execute(req, nil)
		if err != nil {
			s.metrics.IncError("predict")
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		if !req.NoCache {
			s.putOutcome(key, out)
		}
		s.metrics.Executed(time.Since(start))
	}
	s.metrics.SessionDone(StateDone, out, time.Since(start))
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(out.Text))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"text": out.Text, "cached": hit, "view": req.View,
	})
}

// diffRequest points at two finished sessions.
type diffRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	// Limit bounds the rendered rows (0 = 20).
	Limit int `json:"limit,omitempty"`
}

// handleDiff renders the cross-run blame delta between two finished
// sessions' profiles.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest("diff")
	var dreq diffRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&dreq); err != nil {
		s.metrics.IncError("diff")
		writeError(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return
	}
	if dreq.Limit <= 0 {
		dreq.Limit = 20
	}
	load := func(id string) (*postmortem.Profile, error) {
		sess := s.session(id)
		if sess == nil {
			return nil, fmt.Errorf("no such session %q", id)
		}
		out, err := sess.Result()
		if err != nil {
			return nil, fmt.Errorf("session %s failed: %w", id, err)
		}
		if out == nil || out.ProfileJSON == nil {
			return nil, fmt.Errorf("session %s (%s) has no profile", id, sess.State())
		}
		return postmortem.ReadJSON(bytes.NewReader(out.ProfileJSON))
	}
	pa, err := load(dreq.A)
	if err != nil {
		s.metrics.IncError("diff")
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	pb, err := load(dreq.B)
	if err != nil {
		s.metrics.IncError("diff")
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	rows := postmortem.Diff(pa, pb)
	writeJSON(w, http.StatusOK, map[string]any{
		"a": dreq.A, "b": dreq.B,
		"text": views.Diff(rows, dreq.Limit),
		"rows": rows,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cache, sched := s.cache.Stats(), s.sched.Stats()
	aux := MetricsAux{Draining: s.draining.Load(), Journal: s.journal.Stats()}
	if s.opts.AuxMetrics != nil {
		aux.Extra = s.opts.AuxMetrics()
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.metrics.Snapshot(cache, sched, aux))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.metrics.Render(cache, sched, aux)))
}

// handleHealth is liveness: the process is up and serving HTTP. It
// stays 200 through a drain — a draining server is alive, just not
// accepting new work (that distinction is /readyz's job).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "sessions": n})
}

// handleReady is readiness: 200 only while the server accepts new
// submissions (not draining, scheduler open). Load balancers and the
// loadtest harness poll this before sending traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	accepting := s.sched.Accepting()
	if draining || !accepting {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "draining": draining, "accepting": accepting,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the uniform error envelope every endpoint returns:
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// codeForStatus maps an HTTP status to the default machine-readable
// error code; handlers that need a more specific code (drain/shed) use
// writeAPIError directly.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeAPIError(w, code, codeForStatus(code), err.Error())
}

func writeAPIError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, apiError{Error: apiErrorBody{Code: code, Message: message}})
}
