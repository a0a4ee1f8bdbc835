// Package obs is the solver telemetry layer: structured events, sinks
// and lightweight metrics shared by the LP, MILP, augmentation and
// annealing layers. It exists so that formulation and search-strategy
// experiments (branching rules, warm starts, covering-rectangle
// variants) can be compared on per-node and per-iteration behavior
// rather than wall-clock alone.
//
// The design center is the nil-safe no-op: an *Observer is threaded
// through solver options as a pointer, and every method on a nil
// Observer returns immediately without allocating, so disabled
// instrumentation costs one predictable branch on the hot path.
// Enabled observers forward flat, schema-stable Event values to a Sink
// (a JSONL trace writer, an in-memory recorder, a human-readable log,
// or any combination).
//
// schema.go is generated from the repository's emit sites; regenerate it
// after adding or changing an event emission.
//
//go:generate go run afp/internal/obs/schemagen -root ../.. -out schema.go
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies the event type. Kinds are namespaced by the emitting
// layer: "lp.*" for simplex solves, "node.*" and "search.*" for branch
// and bound, "step.*" and "adjust" for successive augmentation,
// "anneal.*" for the simulated-annealing baseline.
type Kind string

// Event kinds emitted by the solver layers.
const (
	// KindLPSolve summarizes one simplex solve: iteration, degenerate-pivot
	// and bound-flip counts plus phase timings.
	KindLPSolve Kind = "lp.solve"
	// KindNodeOpen marks a branch-and-bound node entering the tree (the
	// root, or a child created by branching).
	KindNodeOpen Kind = "node.open"
	// KindNodeClose marks a node fully processed after its LP solve;
	// Detail records the resolution (integer, infeasible, bound, branched,
	// unbounded, iterlimit, lperror, cancelled).
	KindNodeClose Kind = "node.close"
	// KindNodePrune marks a node discarded by its parent bound before
	// paying for an LP solve.
	KindNodePrune Kind = "node.prune"
	// KindIncumbent marks an improved integer-feasible solution.
	KindIncumbent Kind = "incumbent"
	// KindProgress is a periodic branch-and-bound probe: nodes explored,
	// open count, incumbent, best bound and relative gap.
	KindProgress Kind = "progress"
	// KindSearchDone summarizes a finished branch-and-bound search.
	KindSearchDone Kind = "search.done"
	// KindSearchParallel summarizes the worker pool of the branch-and-bound
	// search that preceded a search.done event: worker count, shared-pool
	// steal count and cumulative worker idle time. Every search emits it;
	// at Workers 1 the steal and idle counters are zero.
	KindSearchParallel Kind = "search.parallel"
	// KindStepStart opens one successive-augmentation step: group
	// composition, covering-rectangle count and 0-1 variable count.
	KindStepStart Kind = "step.start"
	// KindStepDone closes an augmentation step with the solver cost and
	// resulting partial floorplan height.
	KindStepDone Kind = "step.done"
	// KindAdjust reports one fixed-topology LP adjustment round.
	KindAdjust Kind = "adjust"
	// KindAnnealTemp reports per-move acceptance statistics for one
	// temperature of the simulated-annealing baseline.
	KindAnnealTemp Kind = "anneal.temp"
	// KindPresolve summarizes one presolve pass: fixed binaries, tightened
	// bounds and (for the formulation-level pass) the big-M reduction.
	// Detail distinguishes the pass ("model" for mipmodel's geometric
	// presolve, "propagate" for milp's bound propagation).
	KindPresolve Kind = "presolve.done"
	// KindPortfolioIncumbent marks a verified feasible floorplan
	// published to a portfolio race's shared incumbent board. Detail
	// names the publishing backend, Height/Bound carry the published
	// height and the board's proven height bound, DurUS is the offset
	// from race start, and First flags the race's first feasible
	// incumbent (the time-to-first-feasible sample).
	KindPortfolioIncumbent Kind = "portfolio.incumbent"
	// KindPortfolioWin closes a portfolio race: Detail names the winning
	// backend, Status its outcome, Height the final height and DurUS the
	// race wall time.
	KindPortfolioWin Kind = "portfolio.win"
)

// PerNode reports whether k is one of the branch-and-bound firehose
// kinds emitted for every node or node LP: node.open, node.close,
// node.prune and lp.solve. They are about 99% of a solve's events. A
// server trace caps them first, its live stream and LogSink leave
// them out, and the full trace keeps them.
func (k Kind) PerNode() bool {
	switch k {
	case KindNodeOpen, KindNodeClose, KindNodePrune, KindLPSolve:
		return true
	}
	return false
}

// Event is one structured telemetry record. The struct is flat and
// kind-discriminated: each Kind populates the subset of fields that
// apply to it and leaves the rest at their zero values, which the JSONL
// encoding omits. Fields are value types only, so constructing an Event
// never allocates and emitting to a nil Observer is free.
type Event struct {
	// T is the event time in microseconds since the observer started.
	T int64 `json:"t,omitempty"`
	// Kind discriminates the event type.
	Kind Kind `json:"kind"`

	// Step is the successive-augmentation step index.
	Step int `json:"step,omitempty"`
	// Node is the branch-and-bound node id (order of creation, root = 1).
	Node int `json:"node,omitempty"`
	// Depth is the node depth in the branch-and-bound tree.
	Depth int `json:"depth,omitempty"`
	// BranchVar is the index (into the model's integer set) of the
	// variable branched on.
	BranchVar int `json:"branch_var,omitempty"`
	// Status is a solver status string (lp.Status or milp.Status).
	Status string `json:"status,omitempty"`
	// Detail carries a kind-specific discriminator, e.g. a node.close
	// resolution.
	Detail string `json:"detail,omitempty"`

	// Obj is an objective value: LP objective, incumbent objective or
	// per-step subproblem objective, in the caller's objective sense.
	Obj float64 `json:"obj,omitempty"`
	// Bound is the proven bound paired with Obj.
	Bound float64 `json:"bound,omitempty"`
	// Gap is the relative MIP gap |Obj-Bound| / max(1e-10, |Obj|).
	Gap float64 `json:"gap,omitempty"`
	// Height is the (partial) floorplan height after a step.
	Height float64 `json:"height,omitempty"`
	// Temp is the annealing temperature.
	Temp float64 `json:"temp,omitempty"`

	// Iters counts simplex iterations (total across phases for lp.solve;
	// cumulative across node solves for search-level events).
	Iters int `json:"iters,omitempty"`
	// Phase1Iters is the share of an lp.solve's Iters spent in the dual
	// phase 1.
	Phase1Iters int `json:"phase1_iters,omitempty"`
	// Degenerate counts degenerate pivots (zero step length).
	Degenerate int `json:"degenerate,omitempty"`
	// DualPivots counts dual simplex pivots (per solve for lp.solve;
	// cumulative across node solves for search-level events).
	DualPivots int `json:"dual_pivots,omitempty"`
	// Refactors counts basis LU refactorizations of the simplex (per
	// solve for lp.solve; cumulative for search events).
	Refactors int `json:"refactors,omitempty"`
	// Nodes counts branch-and-bound nodes explored so far.
	Nodes int `json:"nodes,omitempty"`
	// Open counts open (unexplored) nodes.
	Open int `json:"open,omitempty"`
	// Pruned counts nodes discarded without an LP solve.
	Pruned int `json:"pruned,omitempty"`
	// Covers is the covering-rectangle count d presented as obstacles.
	Covers int `json:"covers,omitempty"`
	// Binaries is the 0-1 variable count of a subproblem.
	Binaries int `json:"binaries,omitempty"`
	// Modules counts modules: already placed for step.start, added for
	// step.done.
	Modules int `json:"modules,omitempty"`
	// Accepted / Attempted are per-temperature annealing move counts.
	Accepted  int `json:"accepted,omitempty"`
	Attempted int `json:"attempted,omitempty"`

	// Fixed counts integer variables fixed by a presolve pass.
	Fixed int `json:"fixed,omitempty"`
	// Tightened counts variable bounds tightened by a presolve pass.
	Tightened int `json:"tightened,omitempty"`
	// MReduction is the fraction of disjunctive big-M mass removed by the
	// tightened formulation relative to the blanket one.
	MReduction float64 `json:"m_reduction,omitempty"`

	// Worker is the 1-based branch-and-bound worker id that produced a
	// node.* or incumbent event; 0 (omitted) on the root's node.open,
	// which the search creates before any worker starts.
	Worker int `json:"worker,omitempty"`
	// Workers is the worker count of a search.parallel summary.
	Workers int `json:"workers,omitempty"`
	// Steals counts nodes a worker pulled from the shared pool that were
	// created by a different worker.
	Steals int `json:"steals,omitempty"`
	// IdleUS is the cumulative time workers spent waiting for work, in
	// microseconds, summed across workers.
	IdleUS int64 `json:"idle_us,omitempty"`

	// DurUS is the duration of the traced unit in microseconds.
	DurUS int64 `json:"dur_us,omitempty"`

	// Warm marks an LP solve that started from the basis an earlier
	// solve of the same lp.Incremental left.
	Warm bool `json:"warm,omitempty"`
	// Relaxed marks a step whose critical-net constraints were dropped.
	Relaxed bool `json:"relaxed,omitempty"`
	// First marks the first feasible incumbent of a portfolio race.
	First bool `json:"first,omitempty"`

	// Span is the span id: the span itself for span.start/span.end, the
	// enclosing span for leaf events stamped with one (lp.solve).
	Span int64 `json:"span,omitempty"`
	// Parent is the parent span id of a span.start/span.end event; 0
	// marks a root span.
	Parent int64 `json:"parent,omitempty"`
	// Name is the span name of a span.start/span.end event.
	Name string `json:"name,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent
// use: solver layers may emit from multiple goroutines (width sweeps,
// future parallel branch and bound).
type Sink interface {
	Emit(Event)
}

// Observer stamps events with a monotonic trace clock and forwards them
// to a sink. The zero pointer is the disabled observer: every method on
// a nil *Observer is a cheap no-op, so solver code calls methods
// unconditionally.
type Observer struct {
	sink    Sink
	start   time.Time
	spanSeq atomic.Int64 // span-id allocator (see span.go)
}

// New returns an observer forwarding to sink, or nil when sink is nil
// (so callers can write obs.New(maybeNilSink) and get the no-op).
func New(sink Sink) *Observer {
	if sink == nil {
		return nil
	}
	return &Observer{sink: sink, start: time.Now()}
}

// Enabled reports whether events are being consumed. Hot paths use it
// to skip even the construction of an Event.
func (o *Observer) Enabled() bool { return o != nil && o.sink != nil }

// Emit stamps and forwards one event. Safe (and free) on nil.
func (o *Observer) Emit(e Event) {
	if o == nil || o.sink == nil {
		return
	}
	e.T = time.Since(o.start).Microseconds()
	o.sink.Emit(e)
}

// JSONLWriter is a Sink writing one JSON object per line. It is safe
// for concurrent use; the first encoding or write error is retained and
// reported by Err, after which further events are dropped.
type JSONLWriter struct {
	mu  sync.Mutex
	enc *json.Encoder // immutable after NewJSONLWriter
	err error         // guarded by mu
}

// NewJSONLWriter returns a JSONL sink over w. The caller retains
// ownership of w and closes it after the last event.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// Emit writes one event as a JSON line. Non-finite float fields (e.g. a
// root node's -Inf parent bound) are not representable in JSON and are
// written as 0, i.e. omitted.
func (s *JSONLWriter) Emit(e Event) {
	e = sanitizeEvent(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(&e)
}

func finiteOrZero(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	return x
}

// sanitizeEvent zeroes the non-finite float fields JSON cannot carry.
func sanitizeEvent(e Event) Event {
	e.Obj = finiteOrZero(e.Obj)
	e.Bound = finiteOrZero(e.Bound)
	e.Gap = finiteOrZero(e.Gap)
	e.Height = finiteOrZero(e.Height)
	e.Temp = finiteOrZero(e.Temp)
	e.MReduction = finiteOrZero(e.MReduction)
	return e
}

// MarshalEvent encodes one event as a single JSON object (no trailing
// newline) with the same non-finite-float handling as JSONLWriter, so
// SSE frames and JSONL trace lines decode identically.
func MarshalEvent(e Event) ([]byte, error) {
	e = sanitizeEvent(e)
	return json.Marshal(&e)
}

// Err returns the first write error, if any.
func (s *JSONLWriter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadJSONL decodes a JSONL trace produced by JSONLWriter. Blank lines
// are skipped; a malformed line fails with its 1-based line number and a
// truncated excerpt, so a corrupt multi-megabyte trace points at the
// offending line instead of a byte offset.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return out, fmt.Errorf("obs: trace line %d: %w (line: %s)", line, err, lineExcerpt(raw))
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: reading trace after line %d: %w", line, err)
	}
	return out, nil
}

// lineExcerpt truncates a trace line for error messages.
func lineExcerpt(b []byte) string {
	const max = 80
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max-3]) + "..."
}

// Recorder is an in-memory Sink for tests and programmatic analysis.
type Recorder struct {
	mu     sync.Mutex
	events []Event // guarded by mu
}

// Emit appends the event.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// CountKind returns the number of recorded events of kind k.
func (r *Recorder) CountKind(k Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// LastKind returns the most recent event of kind k and whether one
// exists.
func (r *Recorder) LastKind(k Kind) (Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.events) - 1; i >= 0; i-- {
		if r.events[i].Kind == k {
			return r.events[i], true
		}
	}
	return Event{}, false
}

// LogSink is a Sink printing human-readable one-liners, used by the
// CLIs' -verbose flags. It shows search- and step-level events only:
// per-node events (Kind.PerNode) and span events are left to traces.
type LogSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogSink returns a log sink over w (typically os.Stderr).
func NewLogSink(w io.Writer) *LogSink { return &LogSink{w: w} }

// Emit formats one event.
func (s *LogSink) Emit(e Event) {
	if e.Kind.PerNode() || e.Kind == KindSpanStart || e.Kind == KindSpanEnd {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case KindStepStart:
		fmt.Fprintf(s.w, "[%8.3fs] step %d: %d placed as %d covers, %d binaries\n",
			sec(e.T), e.Step, e.Modules, e.Covers, e.Binaries)
	case KindStepDone:
		fmt.Fprintf(s.w, "[%8.3fs] step %d: %s, +%d modules, %d nodes, %d lp iters, height %.1f (%.0fms)%s\n",
			sec(e.T), e.Step, e.Status, e.Modules, e.Nodes, e.Iters, e.Height,
			float64(e.DurUS)/1e3, relaxedSuffix(e.Relaxed))
	case KindProgress:
		fmt.Fprintf(s.w, "[%8.3fs] b&b: %d nodes, %d open, incumbent %.4g, bound %.4g, gap %.2f%%\n",
			sec(e.T), e.Nodes, e.Open, e.Obj, e.Bound, 100*e.Gap)
	case KindIncumbent:
		fmt.Fprintf(s.w, "[%8.3fs] incumbent %.6g at node %d\n", sec(e.T), e.Obj, e.Node)
	case KindSearchDone:
		fmt.Fprintf(s.w, "[%8.3fs] b&b done: %s, obj %.6g, bound %.6g, gap %.2f%%, %d nodes, %d lp iters\n",
			sec(e.T), e.Status, e.Obj, e.Bound, 100*e.Gap, e.Nodes, e.Iters)
	case KindSearchParallel:
		fmt.Fprintf(s.w, "[%8.3fs] b&b parallel: %d workers, %d steals, %.0fms idle\n",
			sec(e.T), e.Workers, e.Steals, float64(e.IdleUS)/1e3)
	case KindAdjust:
		fmt.Fprintf(s.w, "[%8.3fs] adjust %d: chip %.2f x %.2f\n",
			sec(e.T), e.Step, e.Obj, e.Height)
	case KindAnnealTemp:
		fmt.Fprintf(s.w, "[%8.3fs] anneal T=%.4g: %d/%d accepted, cost %.4g, best %.4g\n",
			sec(e.T), e.Temp, e.Accepted, e.Attempted, e.Obj, e.Bound)
	case KindPresolve:
		fmt.Fprintf(s.w, "[%8.3fs] presolve (%s): %d binaries fixed, %d bounds tightened, big-M -%.0f%%\n",
			sec(e.T), e.Detail, e.Fixed, e.Tightened, 100*e.MReduction)
	case KindPortfolioIncumbent:
		fmt.Fprintf(s.w, "[%8.3fs] portfolio incumbent (%s): height %.4g, bound %.4g%s\n",
			sec(e.T), e.Detail, e.Height, e.Bound, firstSuffix(e.First))
	case KindPortfolioWin:
		fmt.Fprintf(s.w, "[%8.3fs] portfolio win: %s (%s), height %.4g (%.0fms)\n",
			sec(e.T), e.Detail, e.Status, e.Height, float64(e.DurUS)/1e3)
	default:
		fmt.Fprintf(s.w, "[%8.3fs] %s %+v\n", sec(e.T), e.Kind, e)
	}
}

func sec(us int64) float64 { return float64(us) / 1e6 }

func relaxedSuffix(r bool) string {
	if r {
		return " [relaxed]"
	}
	return ""
}

func firstSuffix(f bool) string {
	if f {
		return " [first]"
	}
	return ""
}

// Multi fans events out to every sink.
func Multi(sinks ...Sink) Sink {
	// Drop nils so callers can pass optional sinks unconditionally.
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Metrics is a concurrency-safe registry of named counters and
// accumulated timers, JSON-serializable as a flat object. It backs the
// metrics sidecars written by cmd/experiments and the benchmark
// harness. The zero value and the nil pointer are both usable; nil is
// a no-op.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64         // guarded by mu
	timers   map[string]time.Duration // guarded by mu
	gauges   map[string]float64       // guarded by mu
	hists    map[string]*histogram    // guarded by mu
}

// Count adds n to the named counter.
func (m *Metrics) Count(name string, n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.counters == nil {
		m.counters = make(map[string]int64)
	}
	m.counters[name] += n
	m.mu.Unlock()
}

// Time accumulates d under the named timer.
func (m *Metrics) Time(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.timers == nil {
		m.timers = make(map[string]time.Duration)
	}
	m.timers[name] += d
	m.mu.Unlock()
}

// Timed runs f and accumulates its duration under the named timer.
func (m *Metrics) Timed(name string, f func()) {
	start := time.Now()
	f()
	m.Time(name, time.Since(start))
}

// GaugeAdd shifts the named gauge by delta. Unlike counters, gauges are
// level values that rise and fall (queue depth, running jobs); they are
// reported in the snapshot under their plain name.
func (m *Metrics) GaugeAdd(name string, delta float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.gauges == nil {
		m.gauges = make(map[string]float64)
	}
	m.gauges[name] += delta
	m.mu.Unlock()
}

// SetGauge sets the named gauge to an absolute value.
func (m *Metrics) SetGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.gauges == nil {
		m.gauges = make(map[string]float64)
	}
	m.gauges[name] = v
	m.mu.Unlock()
}

// Gauge returns the current value of the named gauge.
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// Counter returns the current value of the named counter.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Snapshot returns a stable, flat view: counters and gauges under their
// own names, timers as "<name>_ms" in milliseconds, histograms as
// "<name>_count" / "<name>_sum" / "<name>_p50" / "<name>_p99" summary
// scalars (the full bucket vectors are served by Histograms and the
// Prometheus writer).
func (m *Metrics) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		out[k] = float64(v)
	}
	for k, v := range m.timers {
		out[k+"_ms"] = float64(v) / float64(time.Millisecond)
	}
	for k, v := range m.gauges {
		out[k] = v
	}
	for k, h := range m.hists {
		snap := HistogramSnapshot{Buckets: h.buckets, Counts: h.counts, Count: h.count, Sum: h.sum}
		out[k+"_count"] = float64(h.count)
		out[k+"_sum"] = h.sum
		out[k+"_p50"] = snap.Quantile(0.50)
		out[k+"_p99"] = snap.Quantile(0.99)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (m *Metrics) WriteJSON(w io.Writer) error {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Hand-roll the object to keep keys ordered (encoding/json sorts map
	// keys too, but ordering explicitly keeps the format obvious).
	if _, err := fmt.Fprintln(w, "{"); err != nil {
		return err
	}
	for i, k := range keys {
		comma := ","
		if i == len(keys)-1 {
			comma = ""
		}
		kb, _ := json.Marshal(k)
		if _, err := fmt.Fprintf(w, "  %s: %g%s\n", kb, snap[k], comma); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
