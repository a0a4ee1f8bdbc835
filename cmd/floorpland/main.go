// Command floorpland serves the floorplanner as an HTTP/JSON API (see
// internal/server): asynchronous solve jobs over a bounded worker pool,
// per-job deadlines and cancellation, an LRU result cache, live SSE
// progress streams and /metrics (JSON or Prometheus exposition by
// content negotiation).
//
// Usage:
//
//	floorpland [flags]
//
// The resolved listen address is printed on stdout once the listener is
// up ("listening on 127.0.0.1:8080"), so scripts can pass -addr :0 and
// scrape the assigned port. SIGINT/SIGTERM starts a graceful drain:
// running solves get -drain to finish (recording partial results when
// cut off), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"afp/internal/obs"
	"afp/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "floorpland:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers  = flag.Int("workers", 2, "concurrent solve workers")
		queue    = flag.Int("queue", 64, "queued-job limit (full queue rejects with 429)")
		cache    = flag.Int("cache", 128, "result-cache capacity (-1 disables)")
		maxJobs  = flag.Int("maxjobs", 1024, "retained job history")
		traceCap = flag.Int("traceevents", 10000, "per-job cap on retained per-node telemetry events (node.*, lp.solve); other events are kept up to twice this")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for running solves")
		verbose  = flag.Bool("verbose", false, "log solver telemetry to stderr")
		sseHB    = flag.Duration("sse-heartbeat", 15*time.Second, "comment-frame interval keeping idle /v1/jobs/{id}/events streams alive")
	)
	flag.Parse()

	cfg := server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheSize:    *cache,
		MaxJobs:      *maxJobs,
		TraceEvents:  *traceCap,
		SSEHeartbeat: *sseHB,
	}
	if *verbose {
		cfg.Sink = obs.NewLogSink(os.Stderr)
	}
	svc := server.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Printf("shutting down: draining for up to %v\n", *drain)
	grace, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting first, then drain the solve pool.
	if err := httpSrv.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "floorpland: http shutdown:", err)
	}
	if err := svc.Shutdown(grace); err != nil {
		fmt.Printf("drain expired; running solves were cancelled\n")
	} else {
		fmt.Printf("drained cleanly\n")
	}
	snap := svc.Metrics().Snapshot()
	fmt.Printf("served %d jobs (%g done, %g cache hits)\n",
		int(snap["jobs_submitted"]), snap["jobs_done"], snap["cache_hit"])
	return nil
}
