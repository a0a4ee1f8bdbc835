// End-to-end tests of the observability surface: the live SSE progress
// stream and Prometheus exposition of the floorpland service, and the
// floorplantrace analysis of a recorded solver trace.
package afp_test

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"afp/internal/obs"
)

// TestE2EFloorplandSSESolveProgress attaches a live event stream to a
// multi-node MILP solve and checks the stream's contract: progress and
// span events arrive and per-node events do not, the relative gap never
// rises within an augmentation step, the stream terminates with an
// `event: job` snapshot once the job completes, and what it carried is
// the job's /trace without its per-node events, line for line.
func TestE2EFloorplandSSESolveProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	base, _ := startFloorpland(t, "-workers", "1")

	var sub map[string]any
	code := httpJSON(t, "POST", base+"/v1/solve", `{"generate":"rand","n":24,"seed":7}`, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, sub)
	}
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", sub)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event, data string
	var streamed []string
	kinds := map[string]int{}
	lastGap := math.Inf(1)
	gapProbes := 0
	var terminal map[string]any
stream:
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			if event == "job" {
				if err := json.Unmarshal([]byte(data), &terminal); err != nil {
					t.Fatalf("terminal frame not JSON: %v\n%s", err, data)
				}
				break stream
			}
			var e map[string]any
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("event frame not JSON: %v\n%s", err, data)
			}
			streamed = append(streamed, data)
			kind, _ := e["kind"].(string)
			kinds[kind]++
			switch kind {
			case "step.start":
				// Each augmentation step restarts the branch-and-bound
				// search, so gap monotonicity holds per step, not globally.
				lastGap = math.Inf(1)
			case "progress":
				obj, _ := e["obj"].(float64)
				gap, _ := e["gap"].(float64)
				if obj != 0 { // probes without an incumbent carry no gap
					if gap > lastGap+1e-6 {
						t.Errorf("gap rose within a step: %g after %g", gap, lastGap)
					}
					lastGap = gap
					gapProbes++
				}
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal job frame")
	}
	if terminal["state"] != "done" {
		t.Fatalf("terminal state %v (%v)", terminal["state"], terminal["error"])
	}
	for k := range kinds {
		if obs.Kind(k).PerNode() {
			t.Errorf("per-node kind %s streamed: %v", k, kinds)
		}
	}
	if kinds["progress"] == 0 || gapProbes == 0 {
		t.Errorf("no incumbent progress probes streamed (kinds %v, probes %d)", kinds, gapProbes)
	}
	if kinds["span.start"] == 0 || kinds["span.end"] == 0 {
		t.Errorf("no span events streamed: %v", kinds)
	}

	trace, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Body.Close()
	var want []string
	tsc := bufio.NewScanner(trace.Body)
	tsc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for tsc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(tsc.Bytes(), &e); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, tsc.Text())
		}
		if !e.Kind.PerNode() {
			want = append(want, tsc.Text())
		}
	}
	if err := tsc.Err(); err != nil {
		t.Fatalf("trace read: %v", err)
	}
	for i := 0; i < len(streamed) && i < len(want); i++ {
		if streamed[i] != want[i] {
			t.Fatalf("streamed event %d differs from the trace:\n stream %s\n trace  %s", i+1, streamed[i], want[i])
		}
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d events, the trace holds %d that are not per-node", len(streamed), len(want))
	}
}

// promSample matches one exposition sample line: name, optional labels,
// numeric value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.eE+-]+|\+Inf|NaN)$`)

// TestE2EFloorplandMetricsPrometheus scrapes /metrics with a text/plain
// Accept header after a completed solve and validates the body parses as
// Prometheus text exposition format 0.0.4.
func TestE2EFloorplandMetricsPrometheus(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	base, _ := startFloorpland(t, "-workers", "1")

	var sub map[string]any
	if code := httpJSON(t, "POST", base+"/v1/solve", `{"generate":"rand","n":8,"seed":3}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if v := pollJob(t, base, sub["id"].(string), 60*time.Second); v["state"] != "done" {
		t.Fatalf("job finished %v", v["state"])
	}

	req, err := http.NewRequest("GET", base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type %q, want %q", ct, obs.PrometheusContentType)
	}

	types := map[string]string{}
	bucketTotals := map[string]string{} // family -> +Inf bucket value
	counts := map[string]string{}       // family -> _count value
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
				t.Fatalf("invalid comment line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("invalid sample line %q", line)
		}
		name, value, _ := strings.Cut(line, " ")
		if fam, ok := strings.CutSuffix(name, `_bucket{le="+Inf"}`); ok {
			bucketTotals[fam] = value
		}
		if fam, ok := strings.CutSuffix(name, "_count"); ok {
			counts[fam] = value
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for name, typ := range map[string]string{
		"jobs_done_total":        "counter",
		"solve_seconds_total":    "counter",
		"pool_workers":           "gauge",
		"worker_utilization_pct": "gauge",
		"lp_solve_us":            "histogram",
		"node_depth":             "histogram",
		"queue_wait_us":          "histogram",
		"http_request_us":        "histogram",
	} {
		if types[name] != typ {
			t.Errorf("family %s: type %q, want %q (all: %v)", name, types[name], typ, types)
		}
	}
	// Histogram invariant: the +Inf bucket equals the series count.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		if bucketTotals[fam] == "" || bucketTotals[fam] != counts[fam] {
			t.Errorf("histogram %s: +Inf bucket %q != count %q", fam, bucketTotals[fam], counts[fam])
		}
	}
}

// TestE2EFloorplanTraceAmi33RootSpan records an ami33 solve trace with
// the CLI and checks floorplantrace reconstructs it: the span tree's
// root duration must agree with the solve wall time the CLI reports to
// within 5%.
func TestE2EFloorplanTraceAmi33RootSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	trace := filepath.Join(t.TempDir(), "ami33.jsonl")
	out := runCLI(t, "floorplan", "", "-design", "ami33", "-trace", trace)

	var wall time.Duration
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "chip ") {
			continue
		}
		fields := strings.Split(strings.TrimSpace(line), ", ")
		d, err := time.ParseDuration(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("parsing solve wall time from %q: %v", line, err)
		}
		wall = d
	}
	if wall == 0 {
		t.Fatalf("no solve summary in CLI output:\n%s", out)
	}

	tout := runCLI(t, "floorplantrace", "", trace)
	m := regexp.MustCompile(`(?m)^\s+solve \(ami33\)\s+(\S+)`).FindStringSubmatch(tout)
	if m == nil {
		t.Fatalf("no ami33 root span in trace output:\n%s", tout)
	}
	root, err := time.ParseDuration(m[1])
	if err != nil {
		t.Fatalf("parsing root duration %q: %v", m[1], err)
	}
	if diff := math.Abs(root.Seconds() - wall.Seconds()); diff > 0.05*wall.Seconds() {
		t.Errorf("root span %v vs solve wall %v: off by %.1f%%, want within 5%%",
			root, wall, 100*diff/wall.Seconds())
	}
	for _, want := range []string{"span tree:", "step 0", "bb", "[lp ", "events by kind:", "node throughput"} {
		if !strings.Contains(tout, want) {
			t.Errorf("trace output missing %q:\n%s", want, tout)
		}
	}
}
