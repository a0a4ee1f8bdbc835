package server

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The cache is keyed on the worker count a job runs with: more than one
// branch-and-bound worker can change the floorplan, so two effective
// counts never share a result, while requests for 0 (serial) and 1 do.
// A request with the removed noPresolve option is refused.
func TestCacheKeyUsesEffectiveWorkers(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	req := func(workers int) *SolveRequest {
		return &SolveRequest{Generate: "rand", N: 6, Seed: 1, Options: SolveOptions{Workers: workers, TimeoutMS: 30000}}
	}
	serial := ts.submit(t, req(0), http.StatusAccepted)
	if v := ts.await(t, serial.ID, 30*time.Second); v.State != StateDone {
		t.Fatalf("serial job state = %s (%s)", v.State, v.Error)
	}
	if one := ts.submit(t, req(1), http.StatusOK); !one.Cached || one.Key != serial.Key {
		t.Fatalf("workers 1 after workers 0: %+v, want a cache hit on key %s", one, serial.Key)
	}
	if ts.jobWorkers(2) == 2 {
		if two := ts.submit(t, req(2), http.StatusAccepted); two.Key == serial.Key {
			t.Fatal("workers 2 shares the serial job's cache key")
		}
	}

	// Whatever the host's CPU count, two effective counts key apart.
	in1, err := Resolve(req(1))
	if err != nil {
		t.Fatal(err)
	}
	in2, err := Resolve(req(2))
	if err != nil {
		t.Fatal(err)
	}
	if in1.Key() == in2.Key() {
		t.Fatal("worker counts 1 and 2 share a cache key")
	}

	if _, err := Resolve(req(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	ts.do(t, "POST", "/v1/solve", json.RawMessage(`{"generate":"rand","n":6,"seed":1,"options":{"noPresolve":true}}`),
		http.StatusBadRequest, nil)
}

func TestJobWorkersCap(t *testing.T) {
	s := New(Config{Workers: 2})
	defer func() { _ = s.Shutdown(context.Background()) }()
	if got := s.jobWorkers(0); got != 1 {
		t.Errorf("jobWorkers(0) = %d, want 1 (unset stays serial)", got)
	}
	maxPer := runtime.GOMAXPROCS(0) / 2
	if maxPer < 1 {
		maxPer = 1
	}
	if got := s.jobWorkers(64); got != maxPer {
		t.Errorf("jobWorkers(64) = %d, want cap %d", got, maxPer)
	}
	if got := s.jobWorkers(1); got != 1 {
		t.Errorf("jobWorkers(1) = %d, want 1", got)
	}
}

func TestGaugeLifecycle(t *testing.T) {
	// queue_depth and running_jobs must rise while a job occupies the
	// single worker and another waits, and fall back to zero when both
	// terminate.
	ts := newTestServer(t, Config{Workers: 1})
	m := ts.Metrics()

	running := ts.submit(t, hardRequest(1500), http.StatusAccepted)
	queued := ts.submit(t, &SolveRequest{
		Generate: "rand", N: 24, Seed: 8,
		Options: SolveOptions{TimeoutMS: 1500},
	}, http.StatusAccepted)

	rose := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if m.Gauge("running_jobs") == 1 && m.Gauge("queue_depth") == 1 {
			rose = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rose {
		t.Fatalf("gauges never rose: running_jobs=%v queue_depth=%v",
			m.Gauge("running_jobs"), m.Gauge("queue_depth"))
	}

	ts.await(t, running.ID, 10*time.Second)
	ts.await(t, queued.ID, 10*time.Second)
	// The terminal job state is published before the deferred gauge
	// decrement runs; give the worker goroutine a beat to unwind.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if m.Gauge("running_jobs") == 0 && m.Gauge("queue_depth") == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rj, qd := m.Gauge("running_jobs"), m.Gauge("queue_depth"); rj != 0 || qd != 0 {
		t.Fatalf("gauges did not fall: running_jobs=%v queue_depth=%v", rj, qd)
	}

	// The metrics endpoint reports the gauges and the derived utilization.
	var snap map[string]float64
	ts.do(t, "GET", "/metrics", nil, http.StatusOK, &snap)
	for _, k := range []string{"running_jobs", "queue_depth", "pool_workers", "worker_utilization_pct"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("/metrics missing %q: %v", k, snap)
		}
	}
	if snap["worker_utilization_pct"] <= 0 {
		t.Errorf("worker_utilization_pct = %v after two solves, want > 0", snap["worker_utilization_pct"])
	}
}

func TestParallelSolveRaceStress(t *testing.T) {
	// A 9-module instance solved with a parallel tree search (workers: 4)
	// while cache hits and /metrics reads hammer the server concurrently.
	// Run under -race via `make race`, this exercises the node pool, the
	// shared incumbent, gauge updates and the cache lock together.
	// No deadline: only complete results enter the cache, and under the
	// race detector's slowdown a deadline would make the seed job partial
	// and defeat the cache-hit half of the test.
	ts := newTestServer(t, Config{Workers: 2})
	req := &SolveRequest{
		Generate: "rand", N: 9, Seed: 3,
		Options: SolveOptions{Workers: 4},
	}
	first := ts.submit(t, req, http.StatusAccepted)
	if v := ts.await(t, first.ID, 3*time.Minute); v.State != StateDone {
		t.Fatalf("seed job state = %s (%s)", v.State, v.Error)
	}

	second := ts.submit(t, &SolveRequest{
		Generate: "rand", N: 9, Seed: 4,
		Options: SolveOptions{Workers: 4},
	}, http.StatusAccepted)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := ts.submit(t, req, http.StatusOK) // cache hit: terminal at submit
			if !sr.Cached {
				t.Errorf("expected cache hit, got %+v", sr)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var snap map[string]float64
			ts.do(t, "GET", "/metrics", nil, http.StatusOK, &snap)
		}()
	}
	wg.Wait()
	if v := ts.await(t, second.ID, 3*time.Minute); v.State != StateDone {
		t.Fatalf("concurrent job state = %s (%s)", v.State, v.Error)
	}
}
