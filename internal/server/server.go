package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"afp/internal/core"
	"afp/internal/obs"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent solves; 0 means 2.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; 0 means 64. A full
	// queue rejects submissions with 429 rather than queueing unboundedly.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity; 0 means 128, negative
	// disables caching.
	CacheSize int
	// MaxJobs bounds retained job history; 0 means 1024.
	MaxJobs int
	// TraceEvents caps the per-node events (obs.Kind.PerNode) of a
	// job's trace: past it they are dropped, while other events are kept
	// until the trace holds twice as many. 0 means 10000.
	TraceEvents int
	// Sink optionally receives every job's telemetry as well, such as
	// floorpland's -verbose stderr log. Events carry no job id, so
	// interleaved jobs cannot be told apart there; a job's own trace is
	// GET /v1/jobs/{id}/trace.
	Sink obs.Sink
	// SSEHeartbeat is the comment-frame interval keeping idle
	// /v1/jobs/{id}/events streams alive; 0 means 15s.
	SSEHeartbeat time.Duration
}

// Server is the floorplan solver service. Create with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	store   *store
	cache   *resultCache
	pool    *pool
	metrics *obs.Metrics
	sink    obs.Sink

	// baseCtx parents every job context; cancelling it aborts all
	// running solves at once (hard shutdown).
	baseCtx     context.Context
	cancelBase  context.CancelFunc
	mu          sync.Mutex
	draining    bool // guarded by mu
	started     time.Time
	shutdownOne sync.Once
}

// New starts the worker pool and returns a ready server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	cacheSize := cfg.CacheSize
	switch {
	case cacheSize == 0:
		cacheSize = 128
	case cacheSize < 0:
		cacheSize = 0
	}
	//vet:allow ctxsolve -- the service root context, cancelled by Shutdown
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      newStore(cfg.MaxJobs),
		cache:      newResultCache(cacheSize),
		metrics:    &obs.Metrics{},
		sink:       cfg.Sink,
		baseCtx:    ctx,
		cancelBase: cancel,
		started:    time.Now(),
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.runJob)
	s.metrics.SetGauge("pool_workers", float64(cfg.Workers))
	// The trust counters (see obs.MetricsSink) exist from the start, so
	// scrapers see a zero rather than a missing series.
	s.metrics.Count("lp_iterlimit", 0)
	s.metrics.Count("steps_limit", 0)
	return s
}

// Metrics exposes the server's counters (for the binary and tests).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.observeRequests(mux)
}

// observeRequests records every request's wall time into the
// http_request_us histogram. Long-lived SSE streams land in the overflow
// bucket by design — the histogram answers "how slow are the control
// endpoints", and streams are visible separately via sse_clients.
func (s *Server) observeRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		s.metrics.Observe("http_request_us", float64(time.Since(start).Microseconds()))
	})
}

// Shutdown drains the service: new submissions are rejected, queued and
// running jobs are given until ctx expires to finish, then every
// remaining solve is cancelled (each still records its best incumbent
// as a partial result). Always returns with the pool stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	var err error
	s.shutdownOne.Do(func() {
		drained := make(chan struct{})
		go func() {
			s.pool.close() // waits for queue drain + running jobs
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			// Grace period over: abort every in-flight solve and wait for
			// the workers to unwind (fast — cancellation is polled in the
			// pivot loops).
			s.cancelBase()
			<-drained
			err = ctx.Err()
		}
		s.cancelBase()
	})
	return err
}

// submitResponse is the body of POST /v1/solve.
type submitResponse struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Key    string `json:"key"`
	Cached bool   `json:"cached,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	in, err := Resolve(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Key and run the job at the worker count it actually gets.
	in.Opts.Workers = s.jobWorkers(in.Opts.Workers)
	// Static model audit before any solver time is spent: a request that
	// is well-formed JSON but yields a malformed MILP (a module wider than
	// the chip, a formulation invariant broken) is rejected here, not
	// discovered mid-solve. The heuristic backends never build the MILP;
	// a portfolio race does.
	if in.Opts.Backend == "milp" || in.Opts.Backend == "portfolio" {
		if err := core.AuditDesign(in.Design, in.coreConfig()); err != nil {
			s.metrics.Count("jobs_malformed", 1)
			httpError(w, http.StatusUnprocessableEntity, "model audit: %v", err)
			return
		}
	}
	key := in.Key()
	s.metrics.Count("jobs_submitted", 1)

	j := newJob(s.store.newID(), in, key, s.cfg.TraceEvents)
	if cached, ok := s.cache.get(key); ok {
		// Served from cache: the job is terminal immediately and never
		// consumes a worker slot.
		s.metrics.Count("cache_hit", 1)
		j.completeCached(cached)
		s.store.add(j)
		writeJSON(w, http.StatusOK, submitResponse{ID: j.ID, State: j.State(), Key: key, Cached: true})
		return
	}
	s.metrics.Count("cache_miss", 1)
	s.store.add(j)
	// Counted before the hand-off: a worker may dequeue the job at once,
	// and the decrement at the top of runJob (which every submitted job
	// reaches; the pool drains its queue on close) must not run first.
	s.metrics.GaugeAdd("queue_depth", 1)
	if !s.pool.submit(j) {
		s.metrics.GaugeAdd("queue_depth", -1)
		j.finish(StateFailed, nil, false, "queue full")
		s.metrics.Count("jobs_rejected", 1)
		httpError(w, http.StatusTooManyRequests, "solve queue is full")
		return
	}
	// Report the state the job was accepted in: a worker may already have
	// started it, and j.State() would then read running.
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, State: StateQueued, Key: key})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	res, terminal, errMsg := j.Result()
	if !terminal {
		// Not ready yet; 202 tells the client to keep polling.
		writeJSON(w, http.StatusAccepted, j.View())
		return
	}
	if res == nil {
		httpError(w, http.StatusConflict, "job %s: no result (%s)", j.ID, errMsg)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	// Errors past the header are write failures to a gone client; there
	// is nothing useful to do with them.
	_ = j.trace.WriteJSONL(w)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.requestCancel() {
		s.metrics.Count("cancel_requests", 1)
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"uptimeMs": time.Since(s.started).Milliseconds(),
		"workers":  s.cfg.Workers,
		"cached":   s.cache.len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.SetGauge("worker_utilization_pct", s.utilizationPct(time.Now()))
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = s.metrics.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.WriteJSON(w)
}

// utilizationPct is aggregate worker utilization as a percentage of the
// pool's capacity over the server's uptime: busy time is the cumulative
// wall-clock of finished solves (the solve timer) plus the elapsed time
// of every solve still running, so a server saturated by one long job
// reports ~100/Workers% rather than 0. Clamped to [0,100] — the timer
// granularity and the race between sampling now and the running set can
// otherwise push a saturated pool epsilon over capacity.
func (s *Server) utilizationPct(now time.Time) float64 {
	capacity := now.Sub(s.started).Seconds() * float64(s.cfg.Workers)
	if capacity <= 0 {
		return 0
	}
	busy := s.metrics.Snapshot()["solve_ms"] / 1000
	for _, j := range s.store.active() {
		if since, running := j.runningSince(); running {
			busy += now.Sub(since).Seconds()
		}
	}
	pct := 100 * busy / capacity
	if pct < 0 {
		return 0
	}
	if pct > 100 {
		return 100
	}
	return pct
}

// wantsPrometheus selects the text exposition format when the Accept
// header asks for text/plain (as Prometheus scrapers do) and JSON stays
// the default otherwise, so pre-existing JSON consumers are unaffected.
func wantsPrometheus(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if mt == "text/plain" {
			return true
		}
	}
	return false
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
