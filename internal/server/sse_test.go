package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"afp/internal/obs"
)

// makeIdleJob publishes a job in the running state that is not driven by
// the worker pool, so tests control its trace and lifecycle directly.
func makeIdleJob(t *testing.T, s *Server) *Job {
	t.Helper()
	in, err := Resolve(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(s.store.newID(), in, "test-key", s.cfg.TraceEvents)
	if !j.tryStart(func() {}) {
		t.Fatal("tryStart failed")
	}
	s.store.add(j)
	return j
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string // empty for default-type frames
	data  string
}

// nextFrame reads one SSE frame, skipping comment lines (heartbeats).
func nextFrame(t *testing.T, sc *bufio.Scanner) sseFrame {
	t.Helper()
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		case line == "" && f.data != "":
			return f
		}
	}
	t.Fatalf("SSE stream ended mid-frame: %v", sc.Err())
	return f
}

func TestSSEReplayThenFollowAndTerminalFrame(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, SSEHeartbeat: time.Hour})
	j := makeIdleJob(t, ts.Server)

	// Events emitted before the client attaches are replayed, without
	// the per-node ones.
	j.trace.Emit(obs.Event{Kind: obs.KindStepStart, Step: 1})
	j.trace.Emit(obs.Event{Kind: obs.KindNodeOpen, Node: 1})
	j.trace.Emit(obs.Event{Kind: obs.KindLPSolve, Iters: 3})
	j.trace.Emit(obs.Event{Kind: obs.KindIncumbent, Node: 1, Obj: 12})

	resp, err := http.Get(ts.http.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	for i, wantKind := range []string{"step.start", "incumbent"} {
		f := nextFrame(t, sc)
		if f.event != "" || !strings.Contains(f.data, wantKind) {
			t.Fatalf("replay frame %d = %+v, want kind %s", i, f, wantKind)
		}
	}

	// An event emitted while attached arrives live; a per-node one
	// emitted before it does not.
	j.trace.Emit(obs.Event{Kind: obs.KindNodeClose, Node: 1, Depth: 1})
	j.trace.Emit(obs.Event{Kind: obs.KindProgress, Nodes: 5, Obj: 12, Bound: 10, Gap: 0.2})
	if f := nextFrame(t, sc); !strings.Contains(f.data, "progress") {
		t.Fatalf("live frame = %+v, want progress", f)
	}

	// Terminal state closes the stream with an `event: job` snapshot.
	j.finish(StateDone, nil, false, "")
	f := nextFrame(t, sc)
	if f.event != "job" {
		t.Fatalf("terminal frame = %+v, want event job", f)
	}
	var view JobView
	if err := json.Unmarshal([]byte(f.data), &view); err != nil {
		t.Fatalf("terminal data not a job view: %v\n%s", err, f.data)
	}
	if view.ID != j.ID || view.State != StateDone {
		t.Fatalf("terminal view = %+v", view)
	}
	if sc.Scan() {
		t.Fatalf("stream continued past the terminal frame: %q", sc.Text())
	}
}

func TestSSEUnknownJob404(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	ts.do(t, "GET", "/v1/jobs/nope/events", nil, http.StatusNotFound, nil)
}

func TestSSEFollowerCapReturns429(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	j := makeIdleJob(t, ts.Server)
	j.trace.maxFollowers = 0 // exhaust the cap without opening 32 sockets
	resp, err := http.Get(ts.http.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
}

func TestSSEHeartbeat(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, SSEHeartbeat: 20 * time.Millisecond})
	j := makeIdleJob(t, ts.Server)
	resp, err := http.Get(ts.http.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": hb") {
			return // idle stream stayed alive via comment frames
		}
	}
	t.Fatalf("no heartbeat before stream ended: %v", sc.Err())
}

func TestTraceBufferSubscribeCap(t *testing.T) {
	b := newTraceBuffer(10)
	for i := 0; i < defaultMaxFollowers; i++ {
		if !b.follow() {
			t.Fatalf("follower %d refused below the cap", i)
		}
	}
	if b.follow() {
		t.Fatal("follower above the cap admitted")
	}
	b.unfollow()
	if !b.follow() {
		t.Fatal("unfollow did not free a follower place")
	}
}

// stallWriter is a streaming response whose body writes block until
// release is closed; started is closed at the first one. It keeps what
// was written in body.
type stallWriter struct {
	header           http.Header
	started, release chan struct{}
	once             sync.Once
	body             bytes.Buffer
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return w.body.Write(p)
}

// A follower whose client stalls while the solver emits falls behind
// in the job's trace and loses nothing: once its client reads again,
// it gets every event and then the terminal frame.
func TestSSEStalledFollowerGetsEveryEvent(t *testing.T) {
	s := New(Config{Workers: 1, SSEHeartbeat: time.Hour})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	j := makeIdleJob(t, s)
	w := &stallWriter{header: http.Header{}, started: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest("GET", "/v1/jobs/"+j.ID+"/events", nil)
	req.SetPathValue("id", j.ID)
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.handleEvents(w, req)
	}()

	// The first event stalls the stream in its write; 300 more follow
	// before the client reads again.
	j.trace.Emit(obs.Event{Kind: obs.KindProgress, Nodes: 1})
	<-w.started
	for n := 2; n <= 301; n++ {
		j.trace.Emit(obs.Event{Kind: obs.KindProgress, Nodes: n})
	}
	j.finish(StateDone, nil, false, "")
	close(w.release)
	<-served

	sc := bufio.NewScanner(&w.body)
	for n := 1; n <= 301; n++ {
		f := nextFrame(t, sc)
		var e obs.Event
		if err := json.Unmarshal([]byte(f.data), &e); f.event != "" || err != nil || e.Kind != obs.KindProgress || e.Nodes != n {
			t.Fatalf("frame %d = %+v (%v), want progress with nodes %d", n, f, err, n)
		}
	}
	if f := nextFrame(t, sc); f.event != "job" {
		t.Fatalf("frame after the events = %+v, want event job", f)
	}
}

// TestSSEPastTheTraceCap runs a job's trace past its cap: per-node
// events are dropped there, step and progress events are kept up to
// twice the cap, and /trace and /events both end with the same
// trace.truncated count, the stream without any per-node event.
func TestSSEPastTheTraceCap(t *testing.T) {
	const max = 10
	ts := newTestServer(t, Config{Workers: 1, TraceEvents: max, SSEHeartbeat: time.Hour})
	j := makeIdleJob(t, ts.Server)
	resp, err := http.Get(ts.http.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// 15 rounds of a step.start, a node.open, an lp.solve and a
	// progress probe: 60 events, of which the trace keeps the first
	// 10, then the non-per-node ones until it holds 20.
	var want []obs.Kind // the kinds /trace keeps
	kept := 0
	for step := 1; step <= 15; step++ {
		for _, k := range []obs.Kind{obs.KindStepStart, obs.KindNodeOpen, obs.KindLPSolve, obs.KindProgress} {
			j.trace.Emit(obs.Event{Kind: k, Step: step})
			if kept < max || !k.PerNode() && kept < 2*max {
				want = append(want, k)
				kept++
			}
		}
	}
	j.finish(StateDone, nil, false, "")
	if got := j.trace.Len(); got != 2*max {
		t.Fatalf("trace keeps %d events, want %d", got, 2*max)
	}

	trace, err := http.Get(ts.http.URL + "/v1/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(trace.Body)
	trace.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(want)+1 {
		t.Fatalf("/trace has %d lines, want %d", len(events), len(want)+1)
	}
	for i, k := range want {
		if events[i].Kind != k {
			t.Fatalf("/trace line %d kind %s, want %s", i+1, events[i].Kind, k)
		}
	}
	last := events[len(want)]
	if last.Kind != kindTruncated || last.Nodes != 60-2*max {
		t.Fatalf("/trace ends with %+v, want trace.truncated with nodes %d", last, 60-2*max)
	}

	sc := bufio.NewScanner(resp.Body)
	var streamed []obs.Event
	for {
		f := nextFrame(t, sc)
		if f.event == "job" {
			break
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(f.data), &e); err != nil {
			t.Fatalf("frame %q: %v", f.data, err)
		}
		streamed = append(streamed, e)
	}
	var wantStream []obs.Event
	for _, e := range events {
		if !e.Kind.PerNode() {
			wantStream = append(wantStream, e)
		}
	}
	if !reflect.DeepEqual(streamed, wantStream) {
		t.Fatalf("stream carried %d events %+v,\nwant /trace without per-node events, %d %+v", len(streamed), streamed, len(wantStream), wantStream)
	}
}

// TestWorkerUtilizationPct pins the utilization formula: busy time is
// completed solve wall-clock plus in-flight elapsed, over uptime times
// pool size, clamped to [0,100]. (The previous implementation divided by
// uptime alone, so any multi-worker server could report over 100%.)
func TestWorkerUtilizationPct(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	now := time.Now()
	s.started = now.Add(-10 * time.Second) // capacity: 20 worker-seconds

	if got := s.utilizationPct(s.started); got != 0 {
		t.Errorf("zero-uptime utilization = %v, want 0", got)
	}
	if got := s.utilizationPct(now); got != 0 {
		t.Errorf("idle utilization = %v, want 0", got)
	}

	// 5s of completed solve time over 20 worker-seconds.
	s.metrics.Time("solve", 5*time.Second)
	if got := s.utilizationPct(now); math.Abs(got-25) > 0.01 {
		t.Errorf("utilization = %v, want 25", got)
	}

	// An in-flight solve 4s old adds 4 busy seconds.
	j := makeIdleJob(t, s)
	j.mu.Lock()
	j.started = now.Add(-4 * time.Second)
	j.mu.Unlock()
	if got := s.utilizationPct(now); math.Abs(got-45) > 0.01 {
		t.Errorf("utilization with running job = %v, want 45", got)
	}

	// A terminal job stops accruing in-flight time.
	j.finish(StateDone, nil, false, "")
	if got := s.utilizationPct(now); math.Abs(got-25) > 0.01 {
		t.Errorf("utilization after finish = %v, want 25", got)
	}

	// Saturation clamps at 100 instead of overflowing.
	s.metrics.Time("solve", time.Hour)
	if got := s.utilizationPct(now); got != 100 {
		t.Errorf("saturated utilization = %v, want 100", got)
	}
}

// expositionLine matches one Prometheus sample: a metric name with
// optional labels and a numeric value.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.eE+-]+|\+Inf|NaN)$`)

func TestMetricsContentNegotiation(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})

	// Default (no Accept) stays JSON for existing consumers.
	var m map[string]float64
	ts.do(t, "GET", "/metrics", nil, http.StatusOK, &m)
	if m["pool_workers"] != 1 {
		t.Fatalf("JSON metrics missing pool_workers: %v", m)
	}
	u, ok := m["worker_utilization_pct"]
	if !ok || u < 0 || u > 100 {
		t.Fatalf("worker_utilization_pct = %v (present %v), want within [0,100]", u, ok)
	}

	// Accept: text/plain (with parameters, in a list) selects the
	// Prometheus text exposition.
	for _, accept := range []string{
		"text/plain",
		"application/json;q=0.9, text/plain;version=0.0.4;q=0.5",
	} {
		req, err := http.NewRequest("GET", ts.http.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := new(strings.Builder)
		sc := bufio.NewScanner(resp.Body)
		var samples int
		for sc.Scan() {
			line := sc.Text()
			body.WriteString(line + "\n")
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				if !strings.HasPrefix(line, "# TYPE ") {
					t.Errorf("unexpected comment line %q", line)
				}
				continue
			}
			if !expositionLine.MatchString(line) {
				t.Errorf("line %q is not valid exposition format", line)
			}
			samples++
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
			t.Fatalf("Accept %q: content type %q, want %q", accept, ct, obs.PrometheusContentType)
		}
		out := body.String()
		if !strings.Contains(out, "# TYPE pool_workers gauge") || !strings.Contains(out, "pool_workers 1") {
			t.Fatalf("Accept %q: exposition missing pool_workers gauge:\n%s", accept, out)
		}
		if !strings.Contains(out, "worker_utilization_pct ") {
			t.Fatalf("Accept %q: exposition missing worker_utilization_pct:\n%s", accept, out)
		}
		// The trust counters are scrapeable before any job ran.
		for _, want := range []string{"lp_iterlimit_total 0", "steps_limit_total 0"} {
			if !strings.Contains(out, want) {
				t.Fatalf("Accept %q: exposition lacks %q:\n%s", accept, want, out)
			}
		}
		if samples == 0 {
			t.Fatalf("Accept %q: no samples in exposition", accept)
		}
	}

	// An explicit JSON Accept keeps JSON.
	req, err := http.NewRequest("GET", ts.http.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON Accept got content type %q", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("JSON Accept body not JSON: %v", err)
	}
}
