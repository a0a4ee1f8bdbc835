package server

import (
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	"afp/internal/core"
	"afp/internal/obs"
	"afp/internal/portfolio"
)

// ResultPayload is the body of GET /v1/jobs/{id}/result. It is a
// self-contained snapshot: geometry, quality numbers and per-step solver
// statistics, so a client never needs a second round trip to judge a
// solution.
type ResultPayload struct {
	Design string `json:"design"`
	// Source names the solution paradigm that produced the floorplan:
	// "bb" for the branch and bound, "anneal"/"seqpair"/"project" for a
	// standalone heuristic, "portfolio:<backend>" for a race's winner.
	Source    string  `json:"source,omitempty"`
	ChipWidth float64 `json:"chipWidth"`
	Height    float64 `json:"height"`
	Area      float64 `json:"area"`
	// Utilization is module area over chip area.
	Utilization float64 `json:"utilization"`
	HPWL        float64 `json:"hpwl"`
	// Placed counts placed modules; on a partial result it is smaller
	// than Modules.
	Placed  int `json:"placed"`
	Modules int `json:"modules"`
	// Partial marks a result cut off by deadline or cancellation: the
	// best incumbent floorplan of the completed augmentation steps.
	Partial bool `json:"partial,omitempty"`
	// Gap is the relative MIP gap of the last completed augmentation step
	// (0 when every step closed optimally, absent for the annealer).
	Gap        float64         `json:"gap"`
	ElapsedMS  int64           `json:"elapsedMs"`
	Placements []PlacementView `json:"placements"`
	Steps      []StepView      `json:"steps,omitempty"`
	// Violations lists legality defects found by the always-on post-solve
	// verification of complete results (empty for a legal floorplan). A
	// result with violations is reported but never cached.
	Violations []string `json:"violations,omitempty"`
}

// PlacementView is one placed module, envelope and module proper.
type PlacementView struct {
	Index   int     `json:"index"`
	Name    string  `json:"name"`
	EnvX    float64 `json:"envX"`
	EnvY    float64 `json:"envY"`
	EnvW    float64 `json:"envW"`
	EnvH    float64 `json:"envH"`
	ModX    float64 `json:"modX"`
	ModY    float64 `json:"modY"`
	ModW    float64 `json:"modW"`
	ModH    float64 `json:"modH"`
	Rotated bool    `json:"rotated,omitempty"`
}

// StepView is one successive-augmentation step's statistics.
type StepView struct {
	Step     int    `json:"step"`
	Added    int    `json:"added"`
	Binaries int    `json:"binaries"`
	Nodes    int    `json:"nodes"`
	LPIters  int    `json:"lpIters"`
	Status   string `json:"status"`
	// Source names who owned the step's best solution: "bb", or a
	// portfolio label when an externally-shared incumbent dominated it.
	Source  string  `json:"source,omitempty"`
	Gap     float64 `json:"gap"`
	Height  float64 `json:"height"`
	Relaxed bool    `json:"relaxed,omitempty"`
}

// runJob executes one dequeued job end to end: start, solve under the
// job deadline with telemetry captured into the job's trace buffer,
// classify the outcome and publish the terminal state. Complete results
// are inserted into the cache.
func (s *Server) runJob(j *Job) {
	// Dequeued: off the queue-depth gauge whatever happens next.
	s.metrics.GaugeAdd("queue_depth", -1)
	ctx, cancel := context.WithCancel(s.baseCtx)
	if !j.tryStart(cancel) {
		// Cancelled while queued: release the slot without solving.
		cancel()
		s.metrics.Count("jobs_skipped", 1)
		return
	}
	defer cancel()
	s.metrics.GaugeAdd("running_jobs", 1)
	defer s.metrics.GaugeAdd("running_jobs", -1)
	if ms := j.Instance.Opts.TimeoutMS; ms > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancelT()
	}

	startedAt, _ := j.runningSince()
	s.metrics.Observe("queue_wait_us", float64(startedAt.Sub(j.created).Microseconds()))

	start := time.Now()
	// The job's fan-out: the per-job trace buffer (read by /trace and the
	// SSE stream), the server-wide sink, and the histogram deriver
	// feeding /metrics.
	o := obs.New(obs.Multi(j.trace, s.sink, obs.MetricsSink{M: s.metrics}))
	var res *core.Result
	var err error
	o.Do(ctx, "job", obs.SpanAttrs{Detail: j.Instance.Design.Name}, func(ctx context.Context) {
		res, err = solveInstance(ctx, j.Instance, o)
	})
	dur := time.Since(start)
	s.metrics.Time("solve", dur)

	payload := buildPayload(j.Instance, res, dur)
	switch {
	case err == nil:
		// Always verify a complete floorplan before publishing it. A result
		// with violations is still returned to the client — the violations
		// travel with it — but it must never enter the cache, where it would
		// be served as authoritative to every later equivalent request.
		if payload != nil && res != nil && len(res.Placements) == len(j.Instance.Design.Modules) {
			for _, v := range res.Verify() {
				payload.Violations = append(payload.Violations, v.String())
			}
		}
		j.finish(StateDone, payload, false, "")
		s.metrics.Count("jobs_done", 1)
		if payload == nil || len(payload.Violations) == 0 {
			s.cache.put(j.Key, payload)
		} else {
			s.metrics.Count("jobs_invalid", 1)
		}
	case errors.Is(err, context.Canceled):
		// Explicit cancellation (DELETE, or server shutdown): keep the
		// partial incumbent available but report the job cancelled.
		if payload != nil {
			payload.Partial = true
		}
		j.finish(StateCancelled, payload, payload != nil, err.Error())
		s.metrics.Count("jobs_cancelled", 1)
	case errors.Is(err, context.DeadlineExceeded):
		// Deadline: a usable incumbent makes this a done-partial result;
		// otherwise the job failed.
		if payload != nil && payload.Placed > 0 {
			payload.Partial = true
			j.finish(StateDone, payload, true, err.Error())
		} else {
			j.finish(StateFailed, payload, payload != nil, err.Error())
		}
		s.metrics.Count("jobs_deadline", 1)
	default:
		j.finish(StateFailed, nil, false, err.Error())
		s.metrics.Count("jobs_failed", 1)
	}
}

// jobWorkers caps a job's requested branch-and-bound worker count so
// that pool.Workers × per-job workers never exceeds the host's CPUs.
// Unset (0) requests stay serial: pool-level concurrency is the
// server's primary parallelism.
func (s *Server) jobWorkers(requested int) int {
	if requested < 1 {
		return 1
	}
	maxPer := runtime.GOMAXPROCS(0) / s.cfg.Workers
	if maxPer < 1 {
		maxPer = 1
	}
	if requested > maxPer {
		return maxPer
	}
	return requested
}

// solveInstance dispatches to the selected backend: the paper's MILP
// directly, every other paradigm through a portfolio race (of one, for
// a single contestant). in.Opts.Workers is the capped worker count.
func solveInstance(ctx context.Context, in *Instance, o *obs.Observer) (*core.Result, error) {
	cfg := in.coreConfig()
	cfg.Obs = o
	// Service solves stream progress over SSE: probe the gap often enough
	// that watchers see bound convergence within a node batch.
	cfg.MILP.ProgressEvery = 128
	if in.Opts.Backend == "milp" {
		return core.FloorplanCtx(ctx, in.Design, cfg)
	}
	popts := portfolio.Options{Seed: in.Opts.AnnealSeed, Obs: o}
	if in.Opts.Backend != "portfolio" {
		popts.Backends = []string{in.Opts.Backend}
	}
	r, err := portfolio.Solve(ctx, in.Design, cfg, popts)
	if r == nil {
		return nil, err
	}
	return r.Result, err
}

// buildPayload converts a (possibly partial, possibly nil) core result.
func buildPayload(in *Instance, res *core.Result, dur time.Duration) *ResultPayload {
	if res == nil {
		return nil
	}
	p := &ResultPayload{
		Design:      in.Design.Name,
		Source:      res.Source,
		ChipWidth:   res.ChipWidth,
		Height:      res.Height,
		Area:        res.ChipArea(),
		Utilization: res.Utilization(),
		HPWL:        res.HPWL(),
		Placed:      len(res.Placements),
		Modules:     len(in.Design.Modules),
		ElapsedMS:   dur.Milliseconds(),
	}
	for _, pl := range res.Placements {
		name := ""
		if pl.Index >= 0 && pl.Index < len(in.Design.Modules) {
			name = in.Design.Modules[pl.Index].Name
		}
		p.Placements = append(p.Placements, PlacementView{
			Index: pl.Index, Name: name,
			EnvX: pl.Env.X, EnvY: pl.Env.Y, EnvW: pl.Env.W, EnvH: pl.Env.H,
			ModX: pl.Mod.X, ModY: pl.Mod.Y, ModW: pl.Mod.W, ModH: pl.Mod.H,
			Rotated: pl.Rotated,
		})
	}
	for _, st := range res.Steps {
		gap := st.Gap
		if math.IsInf(gap, 0) || math.IsNaN(gap) {
			gap = -1 // JSON cannot carry +Inf; -1 means "no proven bound"
		}
		p.Steps = append(p.Steps, StepView{
			Step: st.Step, Added: len(st.Added), Binaries: st.Binaries,
			Nodes: st.Nodes, LPIters: st.LPIters, Status: st.Status.String(),
			Source: st.IncumbentSource,
			Gap:    gap, Height: st.Height, Relaxed: st.Relaxed,
		})
		p.Gap = gap
	}
	return p
}
