package main

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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// warmThreshold is the PMU threshold of set-up requests: far above any
// run's cycle count, so warming runs each program once and takes no
// samples.
const warmThreshold = 1<<40 | 1

// response is what one request returned, whichever layer served it.
type response struct {
	text, output string
	profile      []byte
	cached       bool
}

// sample is one replayed request.
type sample struct {
	key    string
	lat    time.Duration
	ok     bool
	why    string
	cached bool
	// sum covers every byte of the response (bytesDigest); kept only by
	// the untraced replay of a traced run.
	sum [32]byte
}

// execFunc performs one request, Normalize included.
type execFunc func(*serve.Request) (response, error)

// workload is one workload's request sequence and the layer it enters.
type workload struct {
	clients int
	passes  [][]entry
	// setup prepares the state exec runs against, replacing the previous
	// one; a run calls it setupReps times.
	setup func() error
	exec  execFunc
	// trace re-drives the sequence with spans after an untraced replay.
	trace    func(b *bench, td *traceData, untraced []sample) error
	shutdown func() error
	closed   bool
}

func (w *workload) close() error {
	if w.closed || w.shutdown == nil {
		return nil
	}
	w.closed = true
	return w.shutdown()
}

var workloads = map[string]func(*bench) *workload{
	"profile": newProfile,
	"serve":   newServe,
}

// passResult is one pass of a replay, timed on its own.
type passResult struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration // user+system CPU of the whole process
}

// replay runs every pass to completion.
func (w *workload) replay(b *bench, keep bool) []passResult {
	var out []passResult
	for _, pass := range w.passes {
		cpu0 := cpuTime()
		s, d := drive(pass, w.clients, func(e entry) sample { return do(b, w.exec, e, keep) })
		out = append(out, passResult{s, d, cpuTime() - cpu0})
	}
	return out
}

// drive replays seq with closed-loop clients: each takes the next
// request only once its previous one has completed.
func drive(seq []entry, clients int, do func(entry) sample) ([]sample, time.Duration) {
	samples := make([]sample, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				samples[i] = do(seq[i])
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// do times one request and checks it against the digest table.
func do(b *bench, exec execFunc, e entry, keep bool) sample {
	req := e.request()
	t0 := time.Now()
	resp, err := exec(req)
	s := sample{key: e.Key, lat: time.Since(t0), cached: resp.cached}
	s.ok, s.why = b.verify(e.Key, resp, err)
	if keep {
		s.sum = bytesDigest(resp.text, resp.profile, resp.output)
	}
	return s
}

// verify checks a response against the digest table. A missing row is a
// failure: no response goes unchecked.
func (b *bench) verify(key string, resp response, err error) (bool, string) {
	want, ok := b.digests[key]
	switch {
	case err != nil:
		return false, err.Error()
	case !ok:
		return false, "no digest-table row"
	case outcomeDigest(resp.text, resp.output) != want:
		return false, "outcome digest differs from the digest table"
	}
	return true, ""
}

func execLocal(req *serve.Request) (response, error) {
	if err := req.Normalize(); err != nil {
		return response{}, err
	}
	out, err := serve.Execute(req, nil)
	if err != nil {
		return response{}, err
	}
	return response{text: out.Text, output: out.Output, profile: out.ProfileJSON}, nil
}

// warmRequests are the set-up requests of the profile workload: every
// catalogue program at every size, once, without samples. They fill the
// memos and grow the heap to its working size.
func warmRequests() []*serve.Request {
	var out []*serve.Request
	for _, p := range programs {
		for s := range p.sizes {
			req := profileEntry(p, s, "data").request()
			req.Threshold = warmThreshold
			out = append(out, req)
		}
	}
	return out
}

// profile: in-process serve.Execute, one closed-loop client. Set-up
// fills the compile and blame-analysis memos the timed requests hit.
func newProfile(b *bench) *workload {
	w := &workload{
		clients: 1,
		passes:  sequence(profileEntries(), b.seed, b.passes),
		exec:    execLocal,
	}
	w.setup = func() error {
		resetMemos()
		for _, req := range warmRequests() {
			if _, err := execLocal(req); err != nil {
				return fmt.Errorf("%s: %w", req.Bench, err)
			}
		}
		return nil
	}
	w.trace = func(b *bench, td *traceData, untraced []sample) error {
		traceLocal(b, w, td, untraced)
		return nil
	}
	return w
}

// serveRig is a serve.Server behind a loopback HTTP listener.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func bootServe(journal string, workers int) (*serveRig, error) {
	srv := serve.New(serve.Options{Workers: workers, Journal: journal})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
		served: make(chan error, 1),
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	snap, err := r.metrics()
	if err == nil && !snap.Journal.Enabled {
		err = errors.New("outcome journal did not open")
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the listener, then drains the server and closes its
// journal.
func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if serr := r.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// submit posts one request to /v1/submit and waits for its result.
func (r *serveRig) submit(req *serve.Request) (response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return response{}, err
	}
	resp, err := r.client.Post(r.url+"/v1/submit?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	var res struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Text   string `json:"text"`
		Output string `json:"output"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return response{}, fmt.Errorf("HTTP %d: decoding result: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || res.State != string(serve.StateDone) {
		return response{}, fmt.Errorf("HTTP %d, state %q: %s", resp.StatusCode, res.State, res.Error)
	}
	return response{text: res.Text, output: res.Output, cached: res.Cached}, nil
}

func (r *serveRig) metrics() (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	resp, err := r.client.Get(r.url + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// warmServe boots a server on a fresh journal, fills its cache with the
// warm entries, stops it, and boots a second server that replays the
// journal: the one returned, whose cache must hold every warm entry.
func warmServe(b *bench, warm []entry, workers int) (*serveRig, error) {
	dir, err := os.MkdirTemp(b.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, "outcomes.journal")
	first, err := bootServe(journal, workers)
	if err != nil {
		return nil, err
	}
	for _, e := range warm {
		resp, err := first.submit(e.request())
		if ok, why := b.verify(e.Key, resp, err); !ok {
			first.close()
			return nil, fmt.Errorf("warming %s: %s", e.Key, why)
		}
	}
	if err := first.close(); err != nil {
		return nil, err
	}
	rig, err := bootServe(journal, workers)
	if err != nil {
		return nil, err
	}
	for _, e := range warm {
		resp, err := rig.submit(e.request())
		if ok, why := b.verify(e.Key, resp, err); !ok || !resp.cached {
			rig.close()
			return nil, fmt.Errorf("replayed %s: cached=%t %s", e.Key, resp.cached, why)
		}
	}
	return rig, nil
}

// serve: the HTTP daemon in-process, with a journal and a scheduler of
// NumCPU workers, under two closed-loop clients.
func newServe(b *bench) *workload {
	var rig *serveRig
	var base serve.MetricsSnapshot
	w := &workload{
		clients: 2,
		passes:  servePasses(b.seed, b.passes, 1),
	}
	w.exec = func(req *serve.Request) (response, error) { return rig.submit(req) }
	w.setup = func() error {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
			rig = nil
		}
		resetMemos()
		var err error
		if rig, err = warmServe(b, serveWarmEntries(), runtime.NumCPU()); err != nil {
			return err
		}
		base, err = rig.metrics()
		return err
	}
	w.shutdown = func() error {
		if rig == nil {
			return nil
		}
		return rig.close()
	}
	w.trace = func(b *bench, td *traceData, untraced []sample) error {
		// Misses of the traced replay are numbered after the untraced ones,
		// so they stay never-seen.
		var seq []entry
		for _, pass := range servePasses(b.seed, b.passes, serveMissesPerPass*b.passes+1) {
			seq = append(seq, pass...)
		}
		return traceServe(b, td, rig, base, untraced, seq, w.clients)
	}
	return w
}
