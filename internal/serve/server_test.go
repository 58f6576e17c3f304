package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/vm"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSubmitWaitServesAndCaches: the basic round trip, then a repeat
// submission served straight from the outcome cache.
func TestSubmitWaitServesAndCaches(t *testing.T) {
	_, ts := testServer(t)
	req := Request{Bench: "fig1"}

	resp := postJSON(t, ts.URL+"/v1/submit?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	first := decode[resultResponse](t, resp)
	if first.State != StateDone || first.Text == "" {
		t.Fatalf("first result: state=%s text=%d bytes", first.State, len(first.Text))
	}
	if first.Cached {
		t.Fatal("first submission claims a cache hit")
	}

	second := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1", req))
	if !second.Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if second.Text != first.Text {
		t.Fatal("cached text differs from the executed text")
	}

	// Status and listing endpoints know both sessions.
	st := decode[Status](t, mustGet(t, ts.URL+"/v1/sessions/"+first.ID))
	if st.State != StateDone {
		t.Fatalf("status state = %s", st.State)
	}
	list := decode[[]Status](t, mustGet(t, ts.URL+"/v1/sessions"))
	if len(list) != 2 {
		t.Fatalf("listed %d sessions, want 2", len(list))
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGoldenHTTPMatchesCLI pins the acceptance criterion: the profile
// fetched over HTTP is byte-identical to what cmd/blame prints (both are
// serve.Execute), for the text view and the JSON profile, on first
// execution AND on the cache-hit path.
func TestGoldenHTTPMatchesCLI(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []Request{
		{Bench: "fig1"},
		{Bench: "fig1", View: "all"},
		{Bench: "halo", Locales: 2, View: "comm", CommAggregate: true},
		{Bench: "wavefront", Lint: true},
	} {
		cli := tc // Normalize mutates
		if err := cli.Normalize(); err != nil {
			t.Fatal(err)
		}
		want, err := Execute(&cli, nil)
		if err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 2; round++ { // miss, then hit
			sub := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1", tc))
			if sub.State != StateDone {
				t.Fatalf("%+v round %d: state %s (%s)", tc, round, sub.State, sub.Error)
			}
			resp := mustGet(t, ts.URL+"/v1/sessions/"+sub.ID+"/result?format=text")
			text, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(text) != want.Text {
				t.Fatalf("%+v round %d: HTTP text differs from CLI (%d vs %d bytes)",
					tc, round, len(text), len(want.Text))
			}
			resp = mustGet(t, ts.URL+"/v1/sessions/"+sub.ID+"/result?format=profile")
			prof, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !bytes.Equal(prof, want.ProfileJSON) {
				t.Fatalf("%+v round %d: HTTP profile differs from CLI", tc, round)
			}
		}
	}
}

// TestStreamDeliversEvents: the NDJSON stream ends with a done event
// after phase/progress events, and late subscribers still see history.
func TestStreamDeliversEvents(t *testing.T) {
	_, ts := testServer(t)
	sub := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1", Request{Bench: "fig1", NoCache: true}))

	resp := mustGet(t, ts.URL+"/v1/sessions/"+sub.ID+"/stream?format=ndjson")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != string(StateDone) {
		t.Fatalf("last event = %+v, want done", last)
	}
	sawPhase := false
	for _, ev := range events {
		if ev.Type == "phase" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Fatal("no phase events in the stream")
	}
}

// TestStreamSSEFormat: the default stream speaks text/event-stream.
func TestStreamSSEFormat(t *testing.T) {
	_, ts := testServer(t)
	sub := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1", Request{Bench: "fig1"}))
	resp := mustGet(t, ts.URL+"/v1/sessions/"+sub.ID+"/stream")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "event: done") {
		t.Fatal("SSE stream has no done event")
	}
}

// TestPredictInline: the execution-free endpoint returns the static view
// and caches it.
func TestPredictInline(t *testing.T) {
	_, ts := testServer(t)
	req := Request{Bench: "fig1"}
	first := decode[map[string]any](t, postJSON(t, ts.URL+"/v1/predict", req))
	if first["text"] == "" || first["cached"] == true {
		t.Fatalf("first predict: %+v", first)
	}
	second := decode[map[string]any](t, postJSON(t, ts.URL+"/v1/predict", req))
	if second["cached"] != true {
		t.Fatal("repeat predict missed the cache")
	}
	if second["text"] != first["text"] {
		t.Fatal("cached predict text differs")
	}
}

// TestDiffEndpoint: profile two configurations of the same program and
// diff them.
func TestDiffEndpoint(t *testing.T) {
	_, ts := testServer(t)
	a := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1", Request{Bench: "halo"}))
	b := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1",
		Request{Bench: "halo", Configs: map[string]string{"n": "256", "reps": "4"}}))
	resp := postJSON(t, ts.URL+"/v1/diff", map[string]any{"a": a.ID, "b": b.ID})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("diff: HTTP %d: %s", resp.StatusCode, body)
	}
	out := decode[map[string]any](t, resp)
	text, _ := out["text"].(string)
	if !strings.Contains(text, "Cross-run blame delta") {
		t.Fatalf("diff text: %q", text)
	}
}

// TestMetricsEndpoint: after a miss and a hit, both expositions report a
// positive cache hit rate and the served totals.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	req := Request{Bench: "fig1"}
	postJSON(t, ts.URL+"/v1/submit?wait=1", req).Body.Close()
	postJSON(t, ts.URL+"/v1/submit?wait=1", req).Body.Close()

	snap := decode[MetricsSnapshot](t, mustGet(t, ts.URL+"/metrics?format=json"))
	if snap.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate = %f after a repeat submission", snap.CacheHitRate)
	}
	if snap.Served < 2 || snap.Executed != 1 {
		t.Fatalf("served=%d executed=%d, want >=2 / 1", snap.Served, snap.Executed)
	}
	if snap.Cycles == 0 {
		t.Fatal("no cycles served")
	}

	resp := mustGet(t, ts.URL+"/metrics")
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"blamed_cache_hit_rate", "blamed_queue_depth", "blamed_requests_total",
		"blamed_session_cycles_total", "blamed_request_seconds_bucket",
	} {
		if !strings.Contains(string(text), metric) {
			t.Fatalf("metrics exposition missing %s", metric)
		}
	}
}

// TestSubmitRejectsBadRequests: malformed bodies and invalid requests
// are 400s, unknown sessions 404s.
func TestSubmitRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/submit", Request{Bench: "no-such-bench"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown bench: HTTP %d", resp.StatusCode)
	}
	resp = mustGet(t, ts.URL+"/v1/sessions/s-999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: HTTP %d", resp.StatusCode)
	}
}

// TestChaosUnderLoad is the per-session fault-injection criterion under
// concurrency: many sessions with different fault specs run at once;
// faults change the comm counters but NEVER the program's own output
// bytes (the runtime retries/reroutes transparently).
func TestChaosUnderLoad(t *testing.T) {
	_, ts := testServer(t)
	base := Request{Bench: "halo", Locales: 4, CommAggregate: true,
		Configs: map[string]string{"n": "128", "reps": "3"}}

	clean := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1", base))
	if clean.State != StateDone {
		t.Fatalf("clean run: %s (%s)", clean.State, clean.Error)
	}
	if clean.Output == "" {
		t.Fatal("clean run produced no program output to compare")
	}

	specs := []struct {
		spec string
		seed uint64
	}{
		{"loss=0.05", 1},
		{"loss=0.02,dup=0.02", 2},
		{"delay=0.2:3xCommLatency", 3},
		{"locale-slow=2:4x", 4},
		{"loss=0.05", 9}, // same spec, different seed: distinct session
	}
	var wg sync.WaitGroup
	results := make([]resultResponse, len(specs))
	errs := make([]error, len(specs))
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, spec string, seed uint64) {
			defer wg.Done()
			req := base
			req.FaultSpec, req.FaultSeed = spec, seed
			data, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/submit?wait=1", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i, sp.spec, sp.seed)
	}
	wg.Wait()

	for i, sp := range specs {
		if errs[i] != nil {
			t.Fatalf("fault %q: %v", sp.spec, errs[i])
		}
		r := results[i]
		if r.State != StateDone {
			t.Fatalf("fault %q: state %s (%s)", sp.spec, r.State, r.Error)
		}
		if r.Output != clean.Output {
			t.Errorf("fault %q seed %d: program output CHANGED under faults (%d vs %d bytes)",
				sp.spec, sp.seed, len(r.Output), len(clean.Output))
		}
		if r.Stats == nil || r.Stats.Fault == nil {
			t.Fatalf("fault %q: no fault counters in stats", sp.spec)
		}
		if r.Stats.Fault.Sends == 0 {
			t.Errorf("fault %q: injector examined no messages", sp.spec)
		}
	}
	// The two loss=0.05 runs with different seeds must be distinct cache
	// entries (seed is semantic), yet identical program output.
	if results[0].Cached || results[4].Cached {
		t.Error("different fault seeds aliased a cache entry")
	}
}

// TestCancelEndpointMidRun cancels a slow real run over HTTP and checks
// the session lands in cancelled without an outcome.
func TestCancelEndpointMidRun(t *testing.T) {
	_, ts := testServer(t)
	req := Request{Bench: "halo", NoCache: true,
		Configs: map[string]string{"n": "2048", "reps": "64"}}
	sub := decode[submitResponse](t, postJSON(t, ts.URL+"/v1/submit", req))
	if sub.ID == "" {
		t.Fatal("no session id")
	}
	resp := postJSON(t, ts.URL+"/v1/sessions/"+sub.ID+"/cancel", struct{}{})
	out := decode[map[string]any](t, resp)
	if out["cancelled"] != true {
		t.Fatalf("cancel reply: %+v", out)
	}
	resp = mustGet(t, ts.URL+fmt.Sprintf("/v1/sessions/%s", sub.ID))
	st := decode[Status](t, resp)
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	_ = vm.ErrCancelled // the VM-level abort is asserted in TestExecuteCancelMidRun
}

// TestSessionsListedInRegistrationOrder: GET /v1/sessions lists sessions
// oldest first, also once IDs outgrow the six zero-padded digits of
// "s-%06d" and no longer sort as strings.
func TestSessionsListedInRegistrationOrder(t *testing.T) {
	srv, ts := testServer(t)
	req := &Request{Bench: "fig1"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.nextID = 999_998
	srv.mu.Unlock()
	var want []string
	for i := 0; i < 3; i++ {
		sess := newSession("", req)
		srv.register(sess)
		want = append(want, sess.ID)
	}
	var got []string
	for _, st := range decode[[]Status](t, mustGet(t, ts.URL+"/v1/sessions")) {
		got = append(got, st.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("listed %v, want registration order %v", got, want)
	}
}
