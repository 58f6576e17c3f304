package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- journal unit layer ---------------------------------------------

func journalOutcome(i int) *Outcome {
	return &Outcome{
		Text:        fmt.Sprintf("blame table %d", i),
		Output:      fmt.Sprintf("out %d\n", i),
		ProfileJSON: []byte(fmt.Sprintf(`{"i":%d}`, i)),
		Threshold:   uint64(i),
		Samples:     i,
	}
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jnl")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), journalOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got := map[string]*Outcome{}
	j2, err := OpenJournal(path, func(key string, out *Outcome) { got[key] = out })
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.Replayed != n || st.Truncated != 0 {
		t.Fatalf("replayed=%d truncated=%d, want %d/0", st.Replayed, st.Truncated, n)
	}
	for i := 0; i < n; i++ {
		out := got[fmt.Sprintf("k%d", i)]
		want := journalOutcome(i)
		if out == nil {
			t.Fatalf("k%d missing after replay", i)
		}
		if out.Text != want.Text || out.Output != want.Output ||
			string(out.ProfileJSON) != string(want.ProfileJSON) ||
			out.Threshold != want.Threshold || out.Samples != want.Samples {
			t.Fatalf("k%d replayed differently: %+v", i, out)
		}
	}
}

// TestJournalTornTailTruncated simulates a SIGKILL mid-append: the last
// frame is cut short. Replay must keep every whole frame, drop the torn
// one, and truncate so the next append lands on a clean boundary.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jnl")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), journalOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: keep its header + half its payload. Find
	// the offset of the third frame by walking the first two.
	off := 0
	for i := 0; i < 2; i++ {
		n := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		off += journalHeaderLen + n
	}
	torn := data[:off+journalHeaderLen+5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var keys []string
	j2, err := OpenJournal(path, func(key string, _ *Outcome) { keys = append(keys, key) })
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Stats()
	if st.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2 (torn tail dropped)", st.Replayed)
	}
	if st.Truncated == 0 {
		t.Fatal("expected nonzero truncated byte count")
	}
	// Appends after the truncation must replay cleanly next time.
	if err := j2.Append("k3", journalOutcome(3)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	keys = nil
	j3, err := OpenJournal(path, func(key string, _ *Outcome) { keys = append(keys, key) })
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if want := []string{"k0", "k1", "k3"}; strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("keys after tear+append = %v, want %v", keys, want)
	}
}

// TestJournalCorruptMiddleStops: damage inside an early frame stops the
// replay there — nothing after a bad CRC is trusted, even intact-looking
// frames.
func TestJournalCorruptMiddleStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jnl")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), journalOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in frame 0.
	data[journalHeaderLen+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.Replayed != 0 || st.Truncated != uint64(len(data)) {
		t.Fatalf("replayed=%d truncated=%d, want 0/%d", st.Replayed, st.Truncated, len(data))
	}
}

// FuzzJournalReplay treats the input as a whole journal file. Replay
// never fails on a regular file; the file it leaves reopens to the same
// records in the same order with nothing truncated; and a record
// appended to it replays after them, byte for byte. The seeds in
// testdata/fuzz are an empty file, a 3-record journal, and that journal
// with a torn tail and with a flipped CRC byte.
func FuzzJournalReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "outcomes.jnl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, _ := replayJournal(t, path, nil)
		out := journalOutcome(7)
		again, st := replayJournal(t, path, func(j *Journal) {
			if err := j.Append("appended", out); err != nil {
				t.Fatal(err)
			}
		})
		if st.Truncated != 0 {
			t.Fatalf("reopen truncated %d more bytes", st.Truncated)
		}
		if strings.Join(again, "\n") != strings.Join(first, "\n") {
			t.Fatalf("reopen restored\n%q\nafter\n%q", again, first)
		}
		got, _ := replayJournal(t, path, nil)
		want := append(first, encodeJournalRecord(t, "appended", out))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("after one append restored\n%q\nwant\n%q", got, want)
		}
	})
}

// replayJournal opens the journal at path, runs then (when non-nil) on
// it, closes it, and returns the restored records in replay order,
// encoded as Append encodes them, with the journal's stats at open.
func replayJournal(t *testing.T, path string, then func(*Journal)) ([]string, JournalStats) {
	t.Helper()
	var recs []string
	j, err := OpenJournal(path, func(key string, out *Outcome) {
		recs = append(recs, encodeJournalRecord(t, key, out))
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	st := j.Stats()
	if then != nil {
		then(j)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return recs, st
}

func encodeJournalRecord(t *testing.T, key string, out *Outcome) string {
	t.Helper()
	b, err := json.Marshal(&journalRecord{Key: key, Outcome: out, Profile: out.ProfileJSON})
	if err != nil {
		t.Fatalf("encoding restored record %q: %v", key, err)
	}
	return string(b)
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Append("k", journalOutcome(0)); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Enabled {
		t.Fatal("nil journal reports Enabled")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- journal through the server -------------------------------------

// TestServerJournalWarmBoot: run a server with a journal, kill it (no
// graceful flush needed — appends are unbuffered), boot a second server
// on the same journal, and check the first server's outcome is served
// as a cache hit with identical bytes.
func TestServerJournalWarmBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jnl")
	srv1 := New(Options{Workers: 2, Journal: path})
	ts1 := httptest.NewServer(srv1.Handler())
	req := Request{Bench: "fig1"}
	first := decode[resultResponse](t, postJSON(t, ts1.URL+"/v1/submit?wait=1", req))
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: state=%s cached=%v", first.State, first.Cached)
	}
	ts1.Close()
	srv1.Close()

	srv2 := New(Options{Workers: 2, Journal: path})
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { ts2.Close(); srv2.Close() }()
	second := decode[resultResponse](t, postJSON(t, ts2.URL+"/v1/submit?wait=1", req))
	if !second.Cached {
		t.Fatal("restarted server missed the journaled outcome")
	}
	if second.Text != first.Text || second.Output != first.Output ||
		string(second.Profile) != string(first.Profile) {
		t.Fatal("replayed outcome differs from the original bytes")
	}
	snap := decode[MetricsSnapshot](t, mustGet(t, ts2.URL+"/metrics?format=json"))
	if !snap.Journal.Enabled || snap.Journal.Replayed == 0 {
		t.Fatalf("journal stats after warm boot: %+v", snap.Journal)
	}
}

// --- drain, readiness, shedding -------------------------------------

func TestReadyzFlipsOnDrain(t *testing.T) {
	srv, ts := testServer(t)

	resp := mustGet(t, ts.URL+"/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /readyz: HTTP %d", resp.StatusCode)
	}
	resp = mustGet(t, ts.URL+"/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /healthz: HTTP %d", resp.StatusCode)
	}

	srv.BeginDrain()
	resp = mustGet(t, ts.URL+"/readyz")
	body := decode[map[string]any](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("draining /readyz: HTTP %d body %v", resp.StatusCode, body)
	}
	// Liveness is unaffected by draining.
	resp = mustGet(t, ts.URL+"/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz: HTTP %d", resp.StatusCode)
	}
}

func TestDrainRejectsNewSubmitsServesInFlight(t *testing.T) {
	srv := New(Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// Occupy the single worker with a long run, then queue one more.
	slow := Request{Bench: "halo", Locales: 4,
		Configs: map[string]string{"n": "256", "reps": "4"}}
	sub := decode[submitResponse](t, postJSON(t, ts.URL+"/v1/submit", slow))

	srv.BeginDrain()

	// New submissions are refused with the drain envelope + Retry-After.
	resp := postJSON(t, ts.URL+"/v1/submit", Request{Bench: "fig1"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 missing Retry-After")
	}
	e := decode[apiError](t, resp)
	if e.Error.Code != "draining" {
		t.Fatalf("drain error code = %q", e.Error.Code)
	}

	// The in-flight session still completes normally.
	res := decode[resultResponse](t, mustGet(t, ts.URL+"/v1/sessions/"+sub.ID+"/result?wait=1"))
	if res.State != StateDone || res.Output == "" {
		t.Fatalf("in-flight session after drain: %s (%s)", res.State, res.Error)
	}

	snap := decode[MetricsSnapshot](t, mustGet(t, ts.URL+"/metrics?format=json"))
	if snap.Shed["draining"] != 1 {
		t.Fatalf("shed counters = %v, want draining:1", snap.Shed)
	}
	if !snap.Draining {
		t.Fatal("metrics snapshot does not report draining")
	}
}

// TestQueueFullSheds: with a single busy worker and MaxQueue 1, the
// second distinct queued job is shed with 503/overloaded, while
// coalesced attaches to the queued job still get in free.
func TestQueueFullSheds(t *testing.T) {
	srv := New(Options{Workers: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	busy := Request{Bench: "halo", Locales: 4,
		Configs: map[string]string{"n": "256", "reps": "4"}}
	queued := Request{Bench: "fig1"}
	// First fills the worker (it may briefly sit in the queue); second
	// is a distinct job that occupies the single queue slot.
	postJSON(t, ts.URL+"/v1/submit", busy).Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/submit", queued)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued job never accepted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A third DISTINCT job must be shed...
	var shedResp *http.Response
	for {
		shedResp = postJSON(t, ts.URL+"/v1/submit",
			Request{Bench: "fig1", Configs: map[string]string{"n": "640"}})
		if shedResp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		shedResp.Body.Close()
		if time.Now().After(deadline) {
			t.Skip("workers drained the queue too fast to observe shedding")
		}
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 missing Retry-After")
	}
	e := decode[apiError](t, shedResp)
	if e.Error.Code != "overloaded" {
		t.Fatalf("shed error code = %q", e.Error.Code)
	}

	// ...but an identical resubmission of the queued job coalesces.
	resp := postJSON(t, ts.URL+"/v1/submit", queued)
	sub := decode[submitResponse](t, resp)
	if resp.StatusCode != http.StatusAccepted || !sub.Shared {
		t.Fatalf("coalesced attach: HTTP %d shared=%v", resp.StatusCode, sub.Shared)
	}

	snap := decode[MetricsSnapshot](t, mustGet(t, ts.URL+"/metrics?format=json"))
	if snap.Shed["queue_full"] == 0 {
		t.Fatalf("shed counters = %v, want queue_full>0", snap.Shed)
	}
	if snap.Sched.QueueCap != 1 {
		t.Fatalf("queue cap = %d, want 1", snap.Sched.QueueCap)
	}
}

// --- error envelope goldens -----------------------------------------

// TestErrorEnvelopeGolden pins the exact JSON shape of writeError /
// writeAPIError across representative endpoints: every error is
// {"error":{"code","message"}} and nothing else.
func TestErrorEnvelopeGolden(t *testing.T) {
	srv, ts := testServer(t)

	check := func(name string, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: HTTP %d, want %d", name, resp.StatusCode, wantStatus)
		}
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatalf("%s: body not JSON: %v", name, err)
		}
		if len(raw) != 1 || raw["error"] == nil {
			t.Fatalf("%s: envelope keys = %v, want exactly {error}", name, raw)
		}
		var body map[string]json.RawMessage
		if err := json.Unmarshal(raw["error"], &body); err != nil {
			t.Fatalf("%s: error value not an object: %v", name, err)
		}
		if len(body) != 2 || body["code"] == nil || body["message"] == nil {
			t.Fatalf("%s: error keys = %v, want exactly {code,message}", name, body)
		}
		var code string
		json.Unmarshal(body["code"], &code)
		if code != wantCode {
			t.Fatalf("%s: code = %q, want %q", name, code, wantCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	check("malformed body", resp, http.StatusBadRequest, "bad_request")

	check("unknown bench", postJSON(t, ts.URL+"/v1/submit", Request{Bench: "nope"}),
		http.StatusBadRequest, "bad_request")

	check("unknown session", mustGet(t, ts.URL+"/v1/sessions/s-999999"),
		http.StatusNotFound, "not_found")

	check("diff without sessions", postJSON(t, ts.URL+"/v1/diff", diffRequest{A: "s-1", B: "s-2"}),
		http.StatusUnprocessableEntity, "unprocessable")

	srv.BeginDrain()
	check("submit during drain", postJSON(t, ts.URL+"/v1/submit", Request{Bench: "fig1"}),
		http.StatusServiceUnavailable, "draining")
}

// --- shutdown ordering (satellite 1) --------------------------------

// TestShutdownDrainsBeforeClose is the regression test for the old
// cmd/blamed bug where hs.Shutdown raced Server.Close: Shutdown must
// first refuse new work, then let already-queued sessions FINISH —
// never fail them — and close the journal last (its stats must include
// the final outcome).
func TestShutdownDrainsBeforeClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jnl")
	srv := New(Options{Workers: 1, Journal: path})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Queue several sessions on the single worker so some are still
	// queued when Shutdown begins.
	var subs []submitResponse
	for i := 0; i < 4; i++ {
		req := Request{Bench: "halo", Locales: 2,
			Configs: map[string]string{"n": "128", "reps": fmt.Sprint(i + 1)}}
		subs = append(subs, decode[submitResponse](t, postJSON(t, ts.URL+"/v1/submit", req)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var shutErr error
	go func() {
		defer wg.Done()
		shutErr = srv.Shutdown(ctx)
	}()

	// During/after shutdown every queued session must complete Done.
	for _, sub := range subs {
		sess := srv.session(sub.ID)
		if sess == nil {
			t.Fatalf("session %s vanished", sub.ID)
		}
		<-sess.Done()
		if st := sess.State(); st != StateDone {
			t.Fatalf("session %s ended %s during graceful shutdown", sub.ID, st)
		}
	}
	wg.Wait()
	if shutErr != nil {
		t.Fatalf("Shutdown: %v", shutErr)
	}

	// Journal was closed AFTER the last outcome: a warm boot replays
	// all four.
	replayed := 0
	j, err := OpenJournal(path, func(string, *Outcome) { replayed++ })
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if replayed != len(subs) {
		t.Fatalf("replayed %d of %d outcomes journaled before close", replayed, len(subs))
	}

	// After shutdown the server is not ready and refuses submissions.
	resp := mustGet(t, ts.URL+"/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown /readyz: HTTP %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/submit", Request{Bench: "fig1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: HTTP %d", resp.StatusCode)
	}
}
