// Integration tests: the full pipeline (floorplan -> verify -> route ->
// render -> serialize) across designs, configurations and seeds.
package afp_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"afp/internal/anneal"
	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/render"
	"afp/internal/route"
)

func fastMILP() milp.Options {
	return milp.Options{MaxNodes: 400, TimeLimit: 2 * time.Second}
}

func TestPipelineAcrossConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline integration in -short mode")
	}
	cases := []struct {
		name string
		d    *netlist.Design
		cfg  core.Config
	}{
		{"plain", netlist.Random(8, 1), core.Config{GroupSize: 3, MILP: fastMILP()}},
		{"post-optimized", netlist.Random(8, 2), core.Config{GroupSize: 3, PostOptimize: true, AdjustIterations: 2, MILP: fastMILP()}},
		{"envelopes", netlist.Random(8, 3), core.Config{GroupSize: 3, Envelopes: true, PitchH: 0.2, PitchV: 0.2, MILP: fastMILP()}},
		{"wire-objective", netlist.Random(8, 4), core.Config{GroupSize: 3, Objective: mipmodel.AreaWire, WireWeight: 0.03, MILP: fastMILP()}},
		{"overlapping-covers", netlist.Random(8, 5), core.Config{GroupSize: 3, OverlappingCovers: true, MILP: fastMILP()}},
		{"tangent", netlist.Random(8, 7), core.Config{GroupSize: 3, Linearize: mipmodel.Tangent, PostOptimize: true, MILP: fastMILP()}},
		{"critical", withCritical(netlist.Random(8, 8)), core.Config{GroupSize: 3, CriticalMaxLen: 30, MILP: fastMILP()}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fp, err := core.Floorplan(tc.d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Legality. The tangent mode may produce envelope-vs-module
			// mismatches by design; everything else must be fully legal.
			viol := fp.Verify()
			for _, v := range viol {
				if tc.name == "tangent" && v.Kind == "envelope" {
					continue
				}
				t.Errorf("violation: %v", v)
			}

			// Route.
			rt, err := route.Route(fp, route.Config{Algorithm: route.WeightedShortestPath})
			if err != nil {
				t.Fatal(err)
			}
			if rt.Wirelength <= 0 && len(tc.d.Nets) > 0 {
				t.Error("no wirelength for a netted design")
			}
			if rt.FinalArea() < fp.ChipArea()-1e-6 {
				t.Errorf("final area %v below placed %v", rt.FinalArea(), fp.ChipArea())
			}

			// Render.
			var svg bytes.Buffer
			if err := render.SVGWithRoutes(&svg, fp, rt); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(svg.String(), "<svg") {
				t.Error("bad SVG output")
			}
			if a := render.ASCII(fp, 40); !strings.Contains(a, "utilization") {
				t.Error("bad ASCII output")
			}

			// Serialize round trip.
			var buf bytes.Buffer
			if err := fp.SaveJSON(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := core.LoadJSON(tc.d, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded.Placements) != len(fp.Placements) {
				t.Errorf("JSON round trip lost placements: %d != %d",
					len(loaded.Placements), len(fp.Placements))
			}
		})
	}
}

func withCritical(d *netlist.Design) *netlist.Design {
	if len(d.Nets) > 0 {
		d.Nets[0].Critical = true
	}
	return d
}

// Determinism of the whole pipeline: identical inputs produce identical
// floorplans, routes and renders.
func TestPipelineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline integration in -short mode")
	}
	run := func() (string, error) {
		d := netlist.Random(9, 77)
		fp, err := core.Floorplan(d, core.Config{GroupSize: 3, PostOptimize: true, MILP: fastMILP()})
		if err != nil {
			return "", err
		}
		rt, err := route.Route(fp, route.Config{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.6f %.6f %.6f %d", fp.ChipArea(), fp.HPWL(), rt.Wirelength, rt.Overflow), nil
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("pipeline not deterministic:\n%s\n%s", a, b)
	}
}

// SA baseline floorplans flow through the same downstream pipeline.
func TestPipelineSABaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline integration in -short mode")
	}
	d := netlist.Random(10, 21)
	fp, err := anneal.Floorplan(d, anneal.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v := fp.Verify(); len(v) != 0 {
		t.Fatalf("SA floorplan illegal: %v", v)
	}
	rt, err := route.Route(fp, route.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Wirelength <= 0 {
		t.Fatal("SA floorplan unroutable")
	}
}
