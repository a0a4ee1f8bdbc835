package server

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"regexp"
	"strings"
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
	j := newJob(s.store.newID(), in, "test-key", 0)
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

	// Events emitted before the client attaches must be replayed.
	j.trace.Emit(obs.Event{Kind: obs.KindNodeOpen, Node: 1})
	j.trace.Emit(obs.Event{Kind: obs.KindNodeClose, Node: 1, Depth: 1})

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
	for i, wantKind := range []string{"node.open", "node.close"} {
		f := nextFrame(t, sc)
		if f.event != "" || !strings.Contains(f.data, wantKind) {
			t.Fatalf("replay frame %d = %+v, want kind %s", i, f, wantKind)
		}
	}

	// An event emitted while attached arrives live.
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
	j.trace.maxSubs = 0 // exhaust the cap without opening 32 sockets
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
	var subs []*traceSub
	for i := 0; i < defaultMaxSubs; i++ {
		_, sub, ok := b.subscribe(1)
		if !ok {
			t.Fatalf("subscribe %d refused below cap", i)
		}
		subs = append(subs, sub)
	}
	if _, _, ok := b.subscribe(1); ok {
		t.Fatal("subscribe above cap succeeded")
	}
	b.unsubscribe(subs[0])
	if _, sub, ok := b.subscribe(1); !ok {
		t.Fatal("unsubscribe did not free a follower slot")
	} else {
		b.unsubscribe(sub)
	}
}

func TestTraceBufferReplayAndBackPressure(t *testing.T) {
	b := newTraceBuffer(10)
	b.Emit(obs.Event{Kind: obs.KindNodeOpen, Node: 1})
	b.Emit(obs.Event{Kind: obs.KindNodeOpen, Node: 2})

	// The replay snapshot holds exactly the pre-subscription events.
	replay, slow, ok := b.subscribe(1)
	if !ok || len(replay) != 2 {
		t.Fatalf("replay = %d events, ok=%v; want 2", len(replay), ok)
	}

	// A follower with a full channel loses events instead of blocking
	// Emit; the loss is counted and reported at unsubscribe.
	for n := 3; n <= 5; n++ {
		b.Emit(obs.Event{Kind: obs.KindNodeOpen, Node: n})
	}
	if got := (<-slow.ch).Node; got != 3 {
		t.Fatalf("buffered live event node = %d, want 3", got)
	}
	if lost := b.unsubscribe(slow); lost != 2 {
		t.Fatalf("lost = %d, want 2", lost)
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
