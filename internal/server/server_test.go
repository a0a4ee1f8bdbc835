package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"afp/internal/netlist"
)

// smallRequest is a 5-module inline instance that solves in well under a
// second.
func smallRequest() *SolveRequest {
	return &SolveRequest{
		Design: &DesignSpec{
			Name: "tiny",
			Modules: []ModuleSpec{
				{Name: "a", W: 2, H: 3},
				{Name: "b", W: 3, H: 2, Rotatable: true},
				{Name: "c", W: 1, H: 2},
				{Name: "d", Kind: "flexible", Area: 4, MinAspect: 0.5, MaxAspect: 2},
				{Name: "e", W: 2, H: 2},
			},
			Nets: []NetSpec{
				{Modules: []string{"a", "b"}},
				{Modules: []string{"b", "c", "d"}, Weight: 2},
			},
		},
	}
}

// hardRequest is a generated instance that takes seconds to solve, for
// deadline and cancellation tests.
func hardRequest(timeoutMS int64) *SolveRequest {
	return &SolveRequest{
		Generate: "rand", N: 24, Seed: 7,
		Options: SolveOptions{TimeoutMS: timeoutMS},
	}
}

type testServer struct {
	*Server
	http *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s := New(cfg)
	h := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		h.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return &testServer{Server: s, http: h}
}

func (ts *testServer) do(t *testing.T, method, path string, body any, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.http.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, path, resp.StatusCode, wantCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
}

// submit posts a request and returns the submit response.
func (ts *testServer) submit(t *testing.T, req *SolveRequest, wantCode int) submitResponse {
	t.Helper()
	var sr submitResponse
	ts.do(t, "POST", "/v1/solve", req, wantCode, &sr)
	return sr
}

// await polls the job until it is terminal, failing the test on timeout.
func (ts *testServer) await(t *testing.T, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v JobView
		ts.do(t, "GET", "/v1/jobs/"+id, nil, http.StatusOK, &v)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSolveLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	sr := ts.submit(t, smallRequest(), http.StatusAccepted)
	if sr.ID == "" || sr.Key == "" || sr.State != StateQueued {
		t.Fatalf("submit response: %+v", sr)
	}

	v := ts.await(t, sr.ID, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", v.State, v.Error)
	}
	if v.Partial {
		t.Fatal("complete solve marked partial")
	}
	if v.TraceEvents == 0 {
		t.Fatal("no telemetry captured")
	}

	var res ResultPayload
	ts.do(t, "GET", "/v1/jobs/"+sr.ID+"/result", nil, http.StatusOK, &res)
	if res.Placed != 5 || res.Modules != 5 {
		t.Fatalf("placed %d/%d, want 5/5", res.Placed, res.Modules)
	}
	if res.ChipWidth <= 0 || res.Height <= 0 {
		t.Fatalf("degenerate chip %gx%g", res.ChipWidth, res.Height)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no step statistics")
	}
	if res.Gap != 0 {
		t.Fatalf("gap = %g on an instance solved to optimality", res.Gap)
	}
}

func TestResultBeforeDoneIs202(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	sr := ts.submit(t, hardRequest(0), http.StatusAccepted)
	var v JobView
	ts.do(t, "GET", "/v1/jobs/"+sr.ID+"/result", nil, http.StatusAccepted, &v)
	if v.State.Terminal() {
		t.Skipf("solve finished instantly; cannot observe in-flight state")
	}
	ts.do(t, "DELETE", "/v1/jobs/"+sr.ID, nil, http.StatusOK, nil)
}

func TestUnknownJob404(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	ts.do(t, "GET", "/v1/jobs/nope", nil, http.StatusNotFound, nil)
	ts.do(t, "GET", "/v1/jobs/nope/result", nil, http.StatusNotFound, nil)
	ts.do(t, "DELETE", "/v1/jobs/nope", nil, http.StatusNotFound, nil)
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	for name, req := range map[string]*SolveRequest{
		"neither":        {},
		"both":           {Design: smallRequest().Design, Generate: "ami33"},
		"bad generator":  {Generate: "mystery"},
		"bad backend":    {Generate: "ami33", Options: SolveOptions{Backend: "quantum"}},
		"rand without n": {Generate: "rand"},
	} {
		if _, err := Resolve(req); err == nil {
			t.Errorf("%s: Resolve accepted invalid request", name)
		}
		ts.submit(t, req, http.StatusBadRequest)
	}
}

// maxGenerateN is the largest rand design the service resolves.
const maxGenerateN = netlist.MaxRandomN

// TestGenerateSizeBound checks the rand generator's module-count bound:
// the largest allowed design resolves, one more module is a 400 before
// any generator runs.
func TestGenerateSizeBound(t *testing.T) {
	in, err := Resolve(&SolveRequest{Generate: "rand", N: maxGenerateN, Seed: 1})
	if err != nil {
		t.Fatalf("n=%d: %v", maxGenerateN, err)
	}
	if len(in.Design.Modules) != maxGenerateN {
		t.Fatalf("n=%d resolved %d modules", maxGenerateN, len(in.Design.Modules))
	}
	over := &SolveRequest{Generate: "rand", N: maxGenerateN + 1, Seed: 1}
	if _, err := Resolve(over); err == nil {
		t.Fatalf("n=%d accepted", maxGenerateN+1)
	}
	ts := newTestServer(t, Config{Workers: 1})
	ts.submit(t, over, http.StatusBadRequest)
}

// TestTinyGeneratedDesignSolves submits a three-module rand design; the
// generator runs inside the submit handler, so it must return for
// designs smaller than the largest net.
func TestTinyGeneratedDesignSolves(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	sr := ts.submit(t, &SolveRequest{Generate: "rand", N: 3, Seed: 1, Options: SolveOptions{TimeoutMS: 30000}}, http.StatusAccepted)
	if v := ts.await(t, sr.ID, 30*time.Second); v.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", v.State, v.Error)
	}
}

func TestCacheHitServesSecondSubmission(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	first := ts.submit(t, smallRequest(), http.StatusAccepted)
	ts.await(t, first.ID, 30*time.Second)

	// Identical submission: served from cache, never queued.
	second := ts.submit(t, smallRequest(), http.StatusOK)
	if !second.Cached || second.State != StateDone {
		t.Fatalf("second submission not cache-served: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}

	var a, b ResultPayload
	ts.do(t, "GET", "/v1/jobs/"+first.ID+"/result", nil, http.StatusOK, &a)
	ts.do(t, "GET", "/v1/jobs/"+second.ID+"/result", nil, http.StatusOK, &b)
	if a.Area != b.Area || a.HPWL != b.HPWL {
		t.Fatalf("cached result differs: %g/%g vs %g/%g", a.Area, a.HPWL, b.Area, b.HPWL)
	}

	// The hit is visible in /metrics.
	var m map[string]float64
	ts.do(t, "GET", "/metrics", nil, http.StatusOK, &m)
	if m["cache_hit"] != 1 || m["cache_miss"] != 1 || m["jobs_done"] != 1 {
		t.Fatalf("metrics = %v, want cache_hit=1 cache_miss=1 jobs_done=1", m)
	}
}

func TestDeadlineReturnsPartialPromptly(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	const deadlineMS = 100
	sr := ts.submit(t, hardRequest(deadlineMS), http.StatusAccepted)
	start := time.Now()
	v := ts.await(t, sr.ID, 10*time.Second)
	elapsed := time.Since(start)

	// The job must resolve near its deadline, not after the full solve.
	// ~2x deadline plus polling slack and one LP cancellation window.
	if elapsed > 2*time.Second {
		t.Fatalf("deadline job resolved after %v", elapsed)
	}
	switch v.State {
	case StateDone:
		if !v.Partial {
			t.Skip("instance finished inside the deadline")
		}
		var res ResultPayload
		ts.do(t, "GET", "/v1/jobs/"+sr.ID+"/result", nil, http.StatusOK, &res)
		if !res.Partial {
			t.Fatal("payload not marked partial")
		}
		if res.Placed == 0 {
			t.Fatal("partial result has no incumbent placements")
		}
		if len(res.Steps) == 0 {
			t.Fatal("partial result has no step stats (gap unavailable)")
		}
	case StateFailed:
		if v.Error == "" {
			t.Fatal("failed job without error")
		}
	default:
		t.Fatalf("state = %s", v.State)
	}
}

func TestCancelFreesWorkerSlot(t *testing.T) {
	// One worker: a long-running job occupies it; cancelling must free
	// the slot so a subsequent quick job completes.
	ts := newTestServer(t, Config{Workers: 1})
	long := ts.submit(t, hardRequest(0), http.StatusAccepted)

	// Give the long job time to start solving.
	time.Sleep(50 * time.Millisecond)
	ts.do(t, "DELETE", "/v1/jobs/"+long.ID, nil, http.StatusOK, nil)
	v := ts.await(t, long.ID, 5*time.Second)
	if v.State != StateCancelled && v.State != StateDone {
		t.Fatalf("long job state = %s", v.State)
	}

	quick := ts.submit(t, smallRequest(), http.StatusAccepted)
	qv := ts.await(t, quick.ID, 30*time.Second)
	if qv.State != StateDone {
		t.Fatalf("quick job after cancel: state = %s (err %q)", qv.State, qv.Error)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	// Occupy the only worker, then queue a second job and cancel it.
	long := ts.submit(t, hardRequest(0), http.StatusAccepted)
	queued := ts.submit(t, hardRequest(0), http.StatusAccepted)

	var v JobView
	ts.do(t, "DELETE", "/v1/jobs/"+queued.ID, nil, http.StatusOK, &v)
	if v.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s", v.State)
	}
	if v.StartedAt != "" {
		t.Fatal("cancelled queued job reports a start time")
	}
	ts.do(t, "DELETE", "/v1/jobs/"+long.ID, nil, http.StatusOK, nil)
	ts.await(t, long.ID, 5*time.Second)
}

func TestQueueFullRejects(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	a := ts.submit(t, hardRequest(0), http.StatusAccepted) // occupies worker (eventually)
	// Saturate: the queue holds 1; keep submitting distinct instances
	// until one bounces with 429.
	rejected := false
	var ids []string
	for seed := int64(100); seed < 110; seed++ {
		req := &SolveRequest{Generate: "rand", N: 24, Seed: seed}
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.http.URL+"/v1/solve", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		_ = json.Unmarshal(data, &sr)
		ids = append(ids, sr.ID)
	}
	if !rejected {
		t.Fatal("queue never rejected despite depth 1")
	}
	for _, id := range append(ids, a.ID) {
		ts.do(t, "DELETE", "/v1/jobs/"+id, nil, http.StatusOK, nil)
	}
}

func TestTraceIsValidJSONL(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	sr := ts.submit(t, smallRequest(), http.StatusAccepted)
	ts.await(t, sr.ID, 30*time.Second)

	resp, err := http.Get(ts.http.URL + "/v1/jobs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var kinds = map[string]int{}
	for dec.More() {
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("invalid JSONL: %v", err)
		}
		kind, _ := obj["kind"].(string)
		if kind == "" {
			t.Fatalf("event without kind: %v", obj)
		}
		kinds[kind]++
	}
	for _, want := range []string{"step.start", "step.done", "search.done"} {
		if kinds[want] == 0 {
			t.Fatalf("trace missing %q events; got %v", want, kinds)
		}
	}
}

func TestHealthAndDraining(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	var h map[string]any
	ts.do(t, "GET", "/healthz", nil, http.StatusOK, &h)
	if h["status"] != "ok" {
		t.Fatalf("health = %v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.do(t, "GET", "/healthz", nil, http.StatusServiceUnavailable, &h)
	if h["status"] != "draining" {
		t.Fatalf("health while draining = %v", h)
	}
	ts.submit(t, smallRequest(), http.StatusServiceUnavailable)
}

func TestShutdownCancelsRunningSolves(t *testing.T) {
	s := New(Config{Workers: 1})
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	b, _ := json.Marshal(hardRequest(0))
	resp, err := http.Post(h.URL+"/v1/solve", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	time.Sleep(50 * time.Millisecond) // let it start

	// A zero-grace shutdown must abort the solve and return promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
	if err == nil {
		t.Log("solve drained inside the grace period")
	}
	j, ok := s.store.get(sr.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if st := j.State(); !st.Terminal() {
		t.Fatalf("job state after shutdown = %s", st)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	var ids []string
	for i := 0; i < 8; i++ {
		req := smallRequest()
		req.Design.Name = fmt.Sprintf("d%d", i)
		req.Design.Modules[0].W = 2 + float64(i)*0.25 // distinct instances
		ids = append(ids, ts.submit(t, req, http.StatusAccepted).ID)
	}
	for _, id := range ids {
		if v := ts.await(t, id, 60*time.Second); v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
		}
	}
}
