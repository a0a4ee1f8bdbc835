package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metrics and workloads this
// program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	want := []string{"service"}
	for name := range batchWorkloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program reports %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs)
	check("per_layer", bj.PerLayer, perLayerDefs)
	for _, d := range perLayerDefs {
		if d.moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", d.name)
		}
	}
}
