package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestBackendValidation(t *testing.T) {
	req := smallRequest()
	req.Options.Backend = "warp"
	if _, err := Resolve(req); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
}

// The backend changes which floorplan comes back, so it must be part of
// the cache key — and "milp" must normalize to the default so the two
// spellings share a key.
func TestBackendInCacheKey(t *testing.T) {
	key := func(backend string) string {
		req := smallRequest()
		req.Options.Backend = backend
		in, err := Resolve(req)
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		return in.Key()
	}
	if key("") != key("milp") {
		t.Fatal("backend milp and default hash differently")
	}
	base := key("")
	seen := map[string]string{"": base}
	for _, b := range []string{"portfolio", "anneal", "seqpair", "project"} {
		k := key(b)
		for prev, pk := range seen {
			if k == pk {
				t.Fatalf("backend %q and %q share a cache key", b, prev)
			}
		}
		seen[b] = k
	}
}

// Each annealer runs end to end through the service as a race of one:
// the job ends done with the contestant as its source, a legal complete
// floorplan at the job's chip width, and a repeat submission is a cache
// hit.
func TestAnnealJob(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	for _, backend := range []string{"anneal", "seqpair"} {
		req := smallRequest()
		req.Options.Backend = backend
		req.Options.ChipWidth = 6
		req.Options.TimeoutMS = 30000
		sr := ts.submit(t, req, http.StatusAccepted)
		v := ts.await(t, sr.ID, 30*time.Second)
		if v.State != StateDone {
			t.Fatalf("%s job state = %s (%s)", backend, v.State, v.Error)
		}
		var res ResultPayload
		ts.do(t, "GET", "/v1/jobs/"+sr.ID+"/result", nil, http.StatusOK, &res)
		if res.Source != backend {
			t.Fatalf("result source = %q, want %s", res.Source, backend)
		}
		if len(res.Violations) > 0 || res.Placed != res.Modules {
			t.Fatalf("%s result: violations %v, placed %d/%d", backend, res.Violations, res.Placed, res.Modules)
		}
		if res.ChipWidth != 6 {
			t.Fatalf("%s chip width = %v, want the requested 6", backend, res.ChipWidth)
		}
		if sr2 := ts.submit(t, req, http.StatusOK); !sr2.Cached {
			t.Fatalf("second %s submission not served from cache: %+v", backend, sr2)
		}
	}
}

// A portfolio job runs end to end through the service: the result names
// the winning backend, the floorplan is legal, and — the loser-release
// regression — the pool accounting returns to idle once the race's
// cancelled contestants unwind.
func TestPortfolioJobReleasesPool(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	m := ts.Metrics()

	req := smallRequest()
	req.Options.Backend = "portfolio"
	req.Options.TimeoutMS = 30000
	sr := ts.submit(t, req, http.StatusAccepted)
	v := ts.await(t, sr.ID, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("portfolio job state = %s (%s)", v.State, v.Error)
	}

	var res ResultPayload
	ts.do(t, "GET", "/v1/jobs/"+sr.ID+"/result", nil, http.StatusOK, &res)
	if !strings.HasPrefix(res.Source, "portfolio:") {
		t.Fatalf("result source = %q, want portfolio:<backend>", res.Source)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("portfolio result has violations: %v", res.Violations)
	}
	if res.Placed != res.Modules {
		t.Fatalf("portfolio result partial: %d/%d", res.Placed, res.Modules)
	}

	// Cancelled losers must free their workers: both pool gauges drain to
	// zero after the job completes.
	idle := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if m.Gauge("running_jobs") == 0 && m.Gauge("queue_depth") == 0 {
			idle = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !idle {
		t.Fatalf("pool did not return to idle: running_jobs=%v queue_depth=%v",
			m.Gauge("running_jobs"), m.Gauge("queue_depth"))
	}

	// A second identical submission is a cache hit: complete verified
	// portfolio results are cacheable like any other.
	sr2 := ts.submit(t, req, http.StatusOK)
	if !sr2.Cached {
		t.Fatalf("second portfolio submission not served from cache: %+v", sr2)
	}
}

// The augment path stamps who owned each step's incumbent; without a
// portfolio race that is the branch and bound itself.
func TestStepSourceInPayload(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	sr := ts.submit(t, smallRequest(), http.StatusAccepted)
	v := ts.await(t, sr.ID, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("job state = %s", v.State)
	}
	var res ResultPayload
	ts.do(t, "GET", "/v1/jobs/"+sr.ID+"/result", nil, http.StatusOK, &res)
	if res.Source != "bb" {
		t.Fatalf("augment result source = %q, want bb", res.Source)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps in payload")
	}
	for _, st := range res.Steps {
		if st.Source != "bb" {
			t.Fatalf("step %d source = %q, want bb", st.Step, st.Source)
		}
	}
}
