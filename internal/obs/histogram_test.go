package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserve(t *testing.T) {
	var m Metrics
	m.Observe("lat", 0.5)        // first bucket (<= 1)
	m.Observe("lat", 3)          // <= 5
	m.Observe("lat", 2e7)        // overflow
	m.Observe("lat", math.NaN()) // dropped
	h, ok := m.Histograms()["lat"]
	if !ok {
		t.Fatal("histogram not created")
	}
	if h.Count != 3 {
		t.Fatalf("count = %d, want 3 (NaN dropped)", h.Count)
	}
	if h.Sum != 0.5+3+2e7 {
		t.Fatalf("sum = %v", h.Sum)
	}
	if h.Counts[0] != 1 || h.Counts[2] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", h.Counts)
	}

	var nilM *Metrics
	nilM.Observe("x", 1) // no-op, no panic
	if len(nilM.Histograms()) != 0 {
		t.Fatal("nil metrics should have no histograms")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var m Metrics
	for i := 0; i < 100; i++ {
		m.Observe("lat", 100) // all in the (50, 100] bucket
	}
	h := m.Histograms()["lat"]
	p50 := h.Quantile(0.5)
	if p50 < 50 || p50 > 100 {
		t.Errorf("p50 = %v, want within (50, 100]", p50)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Overflow-bucket quantile clamps to the largest finite bound.
	var over Metrics
	over.Observe("x", 9e9)
	if got := over.Histograms()["x"].Quantile(0.99); got != DefaultBuckets[len(DefaultBuckets)-1] {
		t.Errorf("overflow quantile = %v, want %v", got, DefaultBuckets[len(DefaultBuckets)-1])
	}
}

func TestSnapshotIncludesHistogramSeries(t *testing.T) {
	var m Metrics
	m.Observe("lat", 10)
	m.Observe("lat", 20)
	snap := m.Snapshot()
	if snap["lat_count"] != 2 || snap["lat_sum"] != 30 {
		t.Fatalf("snapshot missing histogram series: %v", snap)
	}
	if _, ok := snap["lat_p50"]; !ok {
		t.Fatal("snapshot missing p50")
	}
	if _, ok := snap["lat_p99"]; !ok {
		t.Fatal("snapshot missing p99")
	}
}

func TestMetricsSink(t *testing.T) {
	var m Metrics
	s := MetricsSink{M: &m}
	s.Emit(Event{Kind: KindLPSolve, DurUS: 120})
	s.Emit(Event{Kind: KindNodeClose, Depth: 7})
	s.Emit(Event{Kind: KindStepDone, DurUS: 5000})
	s.Emit(Event{Kind: KindNodeOpen}) // ignored
	hists := m.Histograms()
	if hists["lp_solve_us"].Count != 1 || hists["lp_solve_us"].Sum != 120 {
		t.Errorf("lp_solve_us: %+v", hists["lp_solve_us"])
	}
	if hists["node_depth"].Count != 1 || hists["node_depth"].Sum != 7 {
		t.Errorf("node_depth: %+v", hists["node_depth"])
	}
	if hists["step_us"].Count != 1 {
		t.Errorf("step_us: %+v", hists["step_us"])
	}
	if len(hists) != 3 {
		t.Errorf("unexpected histograms: %v", hists)
	}
}

// The trust counters: only iteration-limit LPs and unproven steps count,
// and they reach the Prometheus exposition as *_total series.
func TestMetricsSinkTrustCounters(t *testing.T) {
	var m Metrics
	s := MetricsSink{M: &m}
	for _, e := range []Event{
		{Kind: KindLPSolve, Status: "optimal"},
		{Kind: KindLPSolve, Status: "iteration-limit"},
		{Kind: KindLPSolve, Status: "iteration-limit"},
		{Kind: KindLPSolve, Status: "infeasible"},
		{Kind: KindStepDone, Status: "optimal"},
		{Kind: KindStepDone, Status: "feasible"},
		{Kind: KindStepDone, Status: "limit"},
		{Kind: KindStepDone, Status: "infeasible"},
		{Kind: KindSearchDone, Status: "limit"}, // not a step
	} {
		s.Emit(e)
	}
	if got := m.Counter("lp_iterlimit"); got != 2 {
		t.Errorf("lp_iterlimit = %d, want 2", got)
	}
	if got := m.Counter("steps_limit"); got != 2 {
		t.Errorf("steps_limit = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lp_iterlimit_total 2", "steps_limit_total 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	var m Metrics
	m.Count("jobs_done", 3)
	m.Time("solve", 1500*time.Millisecond)
	m.SetGauge("pool_workers", 4)
	m.Observe("lp_solve_us", 40)
	m.Observe("lp_solve_us", 2e8) // overflow bucket

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jobs_done_total counter",
		"jobs_done_total 3",
		"# TYPE solve_seconds_total counter",
		"solve_seconds_total 1.5",
		"# TYPE pool_workers gauge",
		"pool_workers 4",
		"# TYPE lp_solve_us histogram",
		`lp_solve_us_bucket{le="25"} 0`,
		`lp_solve_us_bucket{le="50"} 1`,
		`lp_solve_us_bucket{le="+Inf"} 2`,
		"lp_solve_us_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lp_solve_us_bucket") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("unparsable bucket line %q", line)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = n
	}

	// Nil metrics produce an empty (valid) exposition.
	var nilM *Metrics
	buf.Reset()
	if err := nilM.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil exposition: err=%v len=%d", err, buf.Len())
	}
}

// TestWritersEmitSortedNames pins determinism: both the JSON snapshot
// and the Prometheus exposition emit names in sorted order regardless of
// insertion order, so scrapes and golden files are diffable.
func TestWritersEmitSortedNames(t *testing.T) {
	var m Metrics
	for _, name := range []string{"zeta", "alpha", "mid"} {
		m.Count(name, 1)
		m.Observe(name+"_h", 1)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	var jsonKeys []string
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("bad JSON open: %v %v", tok, err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if key, ok := tok.(string); ok {
			jsonKeys = append(jsonKeys, key)
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	if !sort.StringsAreSorted(jsonKeys) {
		t.Errorf("WriteJSON keys not sorted: %v", jsonKeys)
	}

	buf.Reset()
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var promFamilies []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			promFamilies = append(promFamilies, strings.Fields(line)[2])
		}
	}
	if len(promFamilies) < 6 {
		t.Fatalf("expected >= 6 families, got %v", promFamilies)
	}
	if !sort.StringsAreSorted(promFamilies) {
		t.Errorf("Prometheus families not sorted: %v", promFamilies)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"lp_solve_us": "lp_solve_us",
		"solve.p99":   "solve_p99",
		"9lives":      "_lives",
		"":            "_",
		"a:b":         "a:b",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsRace hammers every Metrics entry point concurrently; run
// under -race this pins the locking discipline of counters, gauges,
// histograms and both writers.
func TestMetricsRace(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Count("n", 1)
				m.Observe("lat", float64(i))
				m.GaugeAdd("g", 1)
				m.GaugeAdd("g", -1)
				if i%100 == 0 {
					m.Snapshot()
					m.Histograms()
					m.WritePrometheus(&bytes.Buffer{})
					m.WriteJSON(&bytes.Buffer{})
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Counter("n") != 4000 {
		t.Fatalf("counter = %d, want 4000", m.Counter("n"))
	}
	if h := m.Histograms()["lat"]; h.Count != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.Count)
	}
}
