package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOutput prints one perfbench run the way perfbench does: a stamp line
// and a result line. An incorrect run reports one failed solve.
func runOutput(workload string, seed int64, trace, correct bool, metrics map[string]float64) string {
	var failures []string
	if !correct {
		failures = []string{"ami33: nodes 1, pinned 2"}
	}
	st, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "trace": trace, "seconds": 20,
		"gomaxprocs": 2, "numcpu": 2, "go": "go1.24.0", "failures": failures,
	})
	ms := map[string]any{}
	for k, v := range metrics {
		ms[k] = map[string]any{"value": v, "unit": "u"}
	}
	res, _ := json.Marshal(map[string]any{"correct": correct, "attempted": 8, "failed": len(failures), "metrics": ms})
	return fmt.Sprintf("stamp %s\n%s\n", st, res)
}

// table1Runs prints five correct table1 runs at seeds 1-5; run i reports
// value i of every metric.
func table1Runs(metrics map[string][]float64) string {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		m := map[string]float64{}
		for k, vs := range metrics {
			m[k] = vs[i]
		}
		b.WriteString(runOutput("table1", int64(i+1), false, true, m))
	}
	return b.String()
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want Summary
	}{
		{[]float64{5, 1, 3, 2, 4}, Summary{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}},
		{[]float64{4, 3, 2, 1}, Summary{N: 4, Min: 1, Q1: 1.75, Median: 2.5, Q3: 3.25, Max: 4}},
		{[]float64{7}, Summary{N: 1, Min: 7, Q1: 7, Median: 7, Q3: 7, Max: 7}},
	} {
		if got := summarize("", tc.xs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

func TestAggregate(t *testing.T) {
	var in strings.Builder
	for seed := int64(3); seed >= 1; seed-- {
		in.WriteString(runOutput("table1", seed, false, true, map[string]float64{"solve_ms_p50": float64(100 + seed)}))
		in.WriteString(runOutput("table1", seed, true, true, map[string]float64{"lp.dual_pivots": 14718.75}))
	}
	snap, err := aggregate(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Host{Go: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2, Seconds: 20}); snap.Host != want {
		t.Errorf("host = %+v, want %+v", snap.Host, want)
	}
	if len(snap.Metrics) != 2 || fmt.Sprint(snap.Seeds) != "[3 2 1]" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got, want := snap.Metrics["table1 solve_ms_p50"], (Summary{Unit: "u", N: 3, Min: 101, Q1: 101.5, Median: 102, Q3: 102.5, Max: 103}); got != want {
		t.Errorf("solve_ms_p50 = %+v, want %+v", got, want)
	}
	if got := snap.Metrics["table1 lp.dual_pivots"]; got.N != 3 || got.Min != 14718.75 || got.Max != 14718.75 {
		t.Errorf("lp.dual_pivots = %+v", got)
	}
}

func TestAggregateRefuses(t *testing.T) {
	ok := runOutput("table1", 1, false, true, map[string]float64{"x": 1})
	stampOnly := strings.SplitAfter(ok, "\n")[0]
	for _, tc := range []struct{ name, in, want string }{
		{"incorrect run", ok + runOutput("route", 2, true, false, nil), "route seed 2 trace true is not correct (ami33: nodes 1, pinned 2)"},
		{"empty", "", "no perfbench runs"},
		{"blank line", ok + "\n" + ok, "want a perfbench stamp line"},
		{"result without stamp", strings.TrimPrefix(ok, stampOnly), "want a perfbench stamp line"},
		{"stamp without result", ok + stampOnly, "table1 seed 1 trace false: no result line"},
		{"two stamps", stampOnly + ok, "no result line"},
		{"other host", ok + strings.Replace(ok, `"numcpu":2`, `"numcpu":4`, 1), "host stamp"},
		{"garbled result", stampOnly + "ok afp 1s\n", "no result line"},
		{"go test output", "PASS\n", "want a perfbench stamp line"},
	} {
		if _, err := aggregate(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestReadBenchmarkJSONBounds(t *testing.T) {
	var bench benchmarkJSON
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]bound{}
	for _, b := range bench.EndToEnd {
		bounds[b.Name] = b
	}
	if b := bounds["solve_ms_p50"]; b.Better != "lower" || b.Bound <= 0 {
		t.Errorf("solve_ms_p50 = %+v", b)
	}
	if b := bounds["util_pct"]; b.Better != "higher" || b.Bound <= 0 {
		t.Errorf("util_pct = %+v", b)
	}
}

func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	snapshot := func(name string, metrics map[string][]float64) string {
		t.Helper()
		snap, err := aggregate(strings.NewReader(table1Runs(metrics)))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return write(name, string(blob))
	}
	bounds := []bound{
		{Name: "solve_ms_p50", Better: "lower", Bound: 0.25},
		{Name: "util_pct", Better: "higher", Bound: 0.05},
	}
	// solve_ms_p50: median 108, IQR 8, bound 27. util_pct: median 78,
	// IQR 8, bound 3.9. lp.solve_ms has no bound and is only printed.
	base := map[string][]float64{
		"lp.dual_pivots": {14718.75, 14718.75, 14718.75, 14718.75, 14718.75},
		"solve_ms_p50":   {100, 104, 108, 112, 116},
		"util_pct":       {70, 74, 78, 82, 86},
		"lp.solve_ms":    {50, 51, 52, 53, 54},
	}
	oldPath := snapshot("old.json", base)
	with := func(metric string, vs ...float64) map[string][]float64 {
		m := map[string][]float64{}
		for k, v := range base {
			m[k] = v
		}
		if vs == nil {
			delete(m, metric)
		} else {
			m[metric] = vs
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		metrics map[string][]float64
		fail    string // "" passes
	}{
		{"same", base, ""},
		{"counter one unit up", with("lp.dual_pivots", 14719.75, 14719.75, 14719.75, 14719.75, 14719.75), "table1 lp.dual_pivots: counter moved from 14718.75 to [14719.75, 14719.75]"},
		{"counter gains spread", with("lp.dual_pivots", 14718.75, 14718.75, 14718.75, 14718.75, 14719.75), "table1 lp.dual_pivots: counter moved from 14718.75 to [14718.75, 14719.75]"},
		{"counter missing", with("lp.dual_pivots"), "table1 lp.dual_pivots: counter missing"},
		{"slower inside the bound", with("solve_ms_p50", 120, 124, 128, 132, 136), ""},
		{"faster beyond the bound", with("solve_ms_p50", 10, 14, 18, 22, 26), ""},
		{"lower util beyond the bound, inside the IQR", with("util_pct", 64, 68, 72, 76, 80), ""},
		{"lower util beyond the bound and the IQR", with("util_pct", 60, 64, 68, 72, 76), "table1 util_pct: median worse by 10"},
		{"slower beyond the bound and the IQR", with("solve_ms_p50", 136, 140, 144, 148, 152), "table1 solve_ms_p50: median worse by 36"},
		{"unbounded metric doubles", with("lp.solve_ms", 100, 102, 104, 106, 108), ""},
	} {
		newPath := snapshot("new.json", tc.metrics)
		var out strings.Builder
		err := runDiff(&out, oldPath, newPath, bounds)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.fail)
		}
		if !strings.Contains(out.String(), "table1 lp.solve_ms") {
			t.Errorf("%s: diff does not print the ungated metric:\n%s", tc.name, out.String())
		}
	}

	legacy := write("BENCH_2026-08-08.json", `{"date": "2026-08-08", "go": "go1.24.0", "cpus": 1,
		"benchmarks": [{"name": "Table1Size15", "iterations": 1, "metrics": {"ns/op": 46683379, "B/op": 2063000}}]}`)
	for _, paths := range [][2]string{{legacy, oldPath}, {oldPath, legacy}} {
		if err := runDiff(io.Discard, paths[0], paths[1], bounds); err == nil || !strings.Contains(err.Error(), "not a perfbench snapshot") {
			t.Errorf("diff %s %s: err = %v, want the pre-perfbench snapshot rejected", paths[0], paths[1], err)
		}
	}
	if err := runDiff(io.Discard, oldPath, filepath.Join(dir, "missing.json"), bounds); err == nil {
		t.Error("a missing snapshot file was accepted")
	}
}
