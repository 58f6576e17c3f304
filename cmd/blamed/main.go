// Command blamed is the blame-as-a-service daemon: a long-running
// HTTP/JSON server exposing the full compile → analyze → run → sample →
// postmortem pipeline as concurrent profiling sessions. Identical
// submissions batch into one pipeline execution, finished outcomes are
// served from a sharded content-addressed cache (optionally shadowed by
// an append-only on-disk journal that makes restarts warm), and
// per-session streams deliver sampler progress plus incremental blame
// ranks (the top 5, every 2000 samples) while a run is still going.
//
// Usage:
//
//	blamed [-addr :8091] [-workers N] [-cache-mb 256] [-shards 16]
//	       [-deadline 0] [-max-sessions 4096] [-max-queue 0]
//	       [-journal PATH] [-drain-timeout 30s] [-backend interp|go]
//
// Endpoints (see README "The blamed server" for the full table):
//
//	POST /v1/submit[?wait=1]            submit a profiling request
//	GET  /v1/sessions                   list sessions
//	GET  /v1/sessions/{id}              session status
//	GET  /v1/sessions/{id}/result       full result (?format=text|profile|output)
//	GET  /v1/sessions/{id}/stream       SSE progress (?format=ndjson)
//	POST /v1/sessions/{id}/cancel       cancel a session
//	POST /v1/predict                    static-only cost prediction
//	POST /v1/diff                       cross-run blame delta
//	GET  /metrics                       observability (?format=json)
//	GET  /healthz                       liveness (up even while draining)
//	GET  /readyz                        readiness (503 once draining)
//
// Signals: SIGTERM/SIGINT start a graceful drain — new submissions get
// 503 + Retry-After immediately, in-flight and queued sessions finish
// (bounded by -drain-timeout), then the scheduler stops and the journal
// is flushed and closed, in that order. A second signal exits at once.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/super"
)

func main() {
	var (
		addr         = flag.String("addr", ":8091", "listen address")
		workers      = flag.Int("workers", 0, "scheduler worker pool size (0 = 4)")
		cacheMB      = flag.Int("cache-mb", 256, "outcome cache budget in MiB")
		shards       = flag.Int("shards", 16, "cache shard count (rounded up to a power of two)")
		deadline     = flag.Duration("deadline", 0, "default per-session deadline for requests that set none (0 = none)")
		maxSessions  = flag.Int("max-sessions", 4096, "retained session metadata bound")
		maxQueue     = flag.Int("max-queue", 0, "queued-job bound; submissions beyond it are shed with 503 (0 = unbounded)")
		journal      = flag.String("journal", "", "append-only outcome journal path; replayed into the cache at boot (\"\" = disabled)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight sessions")
		backend      = flag.String("backend", "interp", "execution backend: interp (in-process) or go (supervised native runners)")
	)
	flag.Parse()

	opts := serve.Options{
		Workers:         *workers,
		CacheBytes:      int64(*cacheMB) << 20,
		CacheShards:     *shards,
		MaxSessions:     *maxSessions,
		DefaultDeadline: *deadline,
		MaxQueue:        *maxQueue,
		Journal:         *journal,
	}
	switch *backend {
	case "interp":
		// Default in-process pipeline (serve.Execute).
	case "go":
		// Native-compile runners under host-level supervision: crashes
		// and hangs restart with backoff, repeat offenders trip a
		// breaker and fall back to the (bit-identical) interpreter.
		sup := super.New(super.Options{})
		opts.Run = sup.ServeRun()
		opts.AuxMetrics = sup.AuxMetrics
	default:
		fmt.Fprintf(os.Stderr, "blamed: unknown -backend %q (want interp or go)\n", *backend)
		os.Exit(2)
	}

	srv := serve.New(opts)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "blamed: draining")
		go func() {
			<-sig // second signal: give up on graceful
			fmt.Fprintln(os.Stderr, "blamed: forced exit")
			os.Exit(1)
		}()
		// Ordered stop. (1) Refuse new submissions while the listener is
		// still up, so clients get clean 503s instead of connection
		// resets. (2) Stop the listener and wait for in-flight handlers
		// — including result?wait= and stream readers whose sessions the
		// scheduler is still executing. (3) Drain the scheduler and close
		// the journal. The old ordering (hs.Shutdown racing srv.Close)
		// failed queued sessions mid-handler.
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		srv.BeginDrain()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "blamed: http shutdown:", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "blamed: drain:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "blamed: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "blamed:", err)
		os.Exit(1)
	}
	<-done
}
