package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/vm"
)

// referenceResult is the result body as writeResult encoded it when it
// marshaled the whole resultResponse on every call: the bytes the head
// + tail encoding must reproduce. An encoding error left the body empty.
func referenceResult(id string, state State, cached bool, out *Outcome, err error) []byte {
	resp := resultResponse{ID: id, State: state, Cached: cached}
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
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if enc.Encode(resp) != nil {
		return nil
	}
	return buf.Bytes()
}

// resultBody is what writeResult writes for sess in the JSON format.
func resultBody(t *testing.T, sess *Session) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	(&Server{}).writeResult(rec, "", sess)
	if rec.Code != http.StatusOK {
		t.Fatalf("writeResult: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("writeResult: Content-Type %q", ct)
	}
	return rec.Body.Bytes()
}

// finished returns a terminal session for out and err, as the scheduler
// or a cache hit leaves it.
func finished(id string, req *Request, state State, out *Outcome, err error, cached bool, tail []byte) *Session {
	sess := newSession(id, req)
	sess.tail = tail
	sess.finish(state, out, err, cached)
	return sess
}

// checkBodies compares writeResult with the reference for out served
// three ways: executed (cached false, tail encoded per call), as the
// first cache hit (which stores the tail) and as a later hit (which
// reads the stored tail).
func checkBodies(t *testing.T, req *Request, out *Outcome) {
	t.Helper()
	if got, want := resultBody(t, finished("s-000001", req, StateDone, out, nil, false, nil)),
		referenceResult("s-000001", StateDone, false, out, nil); !bytes.Equal(got, want) {
		t.Fatalf("executed: body differs from the encoder's\n got %.300q\nwant %.300q", got, want)
	}
	c := NewCache(0, 1)
	c.Put(req.Key(), out)
	var first []byte
	for hit := 1; hit <= 2; hit++ {
		cached, tail, ok := c.getResult(req.Key())
		if !ok || cached != out {
			t.Fatalf("hit %d: cache returned %p, %v", hit, cached, ok)
		}
		if tail == nil {
			t.Fatalf("hit %d: no tail stored", hit)
		}
		if hit == 1 {
			first = tail
		} else if &tail[0] != &first[0] {
			t.Fatal("the second hit encoded the tail again")
		}
		id := fmt.Sprintf("s-%06d", 1000+hit)
		if got, want := resultBody(t, finished(id, req, StateDone, cached, nil, true, tail)),
			referenceResult(id, StateDone, true, out, nil); !bytes.Equal(got, want) {
			t.Fatalf("hit %d: body differs from the encoder's\n got %.300q\nwant %.300q", hit, got, want)
		}
	}
}

// TestResultBodyMatchesEncoder: for every built-in benchmark under each
// view, the result body is byte-identical to encoding the whole
// resultResponse, whether the outcome was just executed, is served from
// the cache for the first time, or comes with a stored tail.
func TestResultBodyMatchesEncoder(t *testing.T) {
	for _, name := range benchprog.Names() {
		for _, view := range []string{"data", "code", "hybrid", "comm", "static"} {
			t.Run(name+"/"+view, func(t *testing.T) {
				t.Parallel()
				req := &Request{Bench: name, View: view, Locales: 2}
				if err := req.Normalize(); err != nil {
					t.Fatal(err)
				}
				out, err := Execute(req, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkBodies(t, req, out)
			})
		}
	}
}

// TestResultBodyOverHTTP: a miss and then a hit, each fetched from
// POST /v1/submit?wait=1 and GET /v1/sessions/{id}/result, read the
// reference bytes.
func TestResultBodyOverHTTP(t *testing.T) {
	srv, ts := testServer(t)
	for round, cached := range []bool{false, true} {
		resp := postJSON(t, ts.URL+"/v1/submit?wait=1", Request{Bench: "fig1"})
		submitted, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var head resultResponse
		if err := json.Unmarshal(submitted, &head); err != nil {
			t.Fatal(err)
		}
		sess := srv.session(head.ID)
		out, _ := sess.Result()
		want := referenceResult(head.ID, StateDone, cached, out, nil)
		if !bytes.Equal(submitted, want) {
			t.Fatalf("round %d: submit body differs from the encoder's", round)
		}
		resp = mustGet(t, ts.URL+"/v1/sessions/"+head.ID+"/result")
		fetched, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(fetched, want) {
			t.Fatalf("round %d: result body differs from the encoder's", round)
		}
	}
}

// FuzzResultBody: for any outcome, error, session ID and cached flag,
// head + tail is the reference encoding (empty when that encoding
// fails, e.g. on a profile that is not JSON), per call and, for the
// outcomes a cache hit serves, from the stored tail.
func FuzzResultBody(f *testing.F) {
	f.Add("s-000001", true, true, "text <a&b> ", "out\xff", []byte(`{"a":[1,2]}`), uint64(7), uint64(101), 3, "")
	f.Fuzz(func(t *testing.T, id string, cached, hasOut bool, text, output string,
		profile []byte, cycles, threshold uint64, samples int, errMsg string) {
		if len(profile) == 0 {
			profile = nil // as the execution-free views leave ProfileJSON
		}
		var out *Outcome
		if hasOut {
			out = &Outcome{Text: text, Output: output, ProfileJSON: profile,
				Stats: vm.Stats{TotalCycles: cycles}, Threshold: threshold, Samples: samples}
		}
		var err error
		state := StateDone
		switch {
		case errMsg != "":
			err, state = errors.New(errMsg), StateFailed
		case out == nil:
			state = StateCancelled
		}
		want := referenceResult(id, state, cached, out, err)
		req := &Request{Bench: "fig1"}
		if got := resultBody(t, finished(id, req, state, out, err, cached, nil)); !bytes.Equal(got, want) {
			t.Fatalf("per call: body differs from the encoder's\n got %q\nwant %q", got, want)
		}
		if out == nil || err != nil {
			return
		}
		c := NewCache(0, 1)
		c.Put("k", out)
		for hit := 0; hit < 2; hit++ {
			_, tail, _ := c.getResult("k")
			if got := resultBody(t, finished(id, req, state, out, nil, cached, tail)); !bytes.Equal(got, want) {
				t.Fatalf("hit %d: body differs from the encoder's\n got %q\nwant %q", hit, got, want)
			}
		}
	})
}

// discardResponse is a ResponseWriter that keeps nothing, so that
// AllocsPerRun counts writeResult's allocations only.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d discardResponse) WriteHeader(int)             {}

// TestCachedHitEncodesOnce: once an outcome's first cache hit stored its
// tail, writing a hit's result costs a few small allocations (the
// Content-Type value and the head buffer), however large the profile.
func TestCachedHitEncodesOnce(t *testing.T) {
	req := &Request{Bench: "clomp"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	out, err := Execute(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0, 0)
	c.Put(req.Key(), out)
	c.getResult(req.Key()) // the first hit encodes and stores the tail
	_, tail, _ := c.getResult(req.Key())
	sess := finished("s-000002", req, StateDone, out, nil, true, tail)
	w := discardResponse{h: make(http.Header)}
	const budget = 3
	allocs := testing.AllocsPerRun(5, func() { (&Server{}).writeResult(w, "", sess) })
	for i := 0; i < 4 && allocs > budget; i++ {
		allocs = min(allocs, testing.AllocsPerRun(5, func() { (&Server{}).writeResult(w, "", sess) }))
	}
	if allocs > budget {
		t.Fatalf("writing a cached result allocates %.1f times, budget %d (profile %d bytes)",
			allocs, budget, len(out.ProfileJSON))
	}
}

// TestRegisterRetentionOrder: registering three times MaxSessions
// sessions, with a few live ones at the head, forgets the oldest
// finished sessions, keeps every live one, keeps the map and the order
// list at the bound, and lists the survivors in registration order.
func TestRegisterRetentionOrder(t *testing.T) {
	const max, live = 64, 5
	srv := New(Options{Workers: 1, MaxSessions: max})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	req := &Request{Bench: "fig1"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3*max; i++ {
		sess := newSession("", req)
		srv.register(sess)
		if i >= live {
			sess.finish(StateDone, nil, nil, false)
		}
		ids = append(ids, sess.ID)
		srv.mu.Lock()
		n, order := len(srv.sessions), len(srv.order)
		srv.mu.Unlock()
		if n > max || order != n {
			t.Fatalf("after %d registrations: %d sessions, order holds %d", i+1, n, order)
		}
	}
	want := append(append([]string(nil), ids[:live]...), ids[len(ids)-(max-live):]...)
	var got []string
	for _, st := range decode[[]Status](t, mustGet(t, ts.URL+"/v1/sessions")) {
		got = append(got, st.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("listed %v,\nwant %v", got, want)
	}
}

// TestSessionID: IDs read as fmt.Sprintf("s-%06d", n) did, zero pad
// and growth past s-999999 included.
func TestSessionID(t *testing.T) {
	for _, n := range []uint64{0, 1, 42, 99_999, 999_999, 1_000_000, 1<<64 - 1} {
		if got, want := sessionID(n), fmt.Sprintf("s-%06d", n); got != want {
			t.Errorf("sessionID(%d) = %q, want %q", n, got, want)
		}
	}
}
