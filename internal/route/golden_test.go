package route

import (
	"math"
	"testing"

	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/netlist"
)

// table3Plans caches the two ami33 floorplans of table3Plan.
var table3Plans = map[bool]*core.Result{}

// table3Plan returns the ami33 floorplan of bench.Table3, with or without
// envelopes, built at Workers: 1 with a 600-node step budget under core's
// default 20 s step limit: the node limit binds first, so the floorplan
// does not depend on the host.
func table3Plan(t *testing.T, envelopes bool) *core.Result {
	t.Helper()
	if fp := table3Plans[envelopes]; fp != nil {
		return fp
	}
	fp, err := core.Floorplan(netlist.AMI33(), core.Config{
		GroupSize:        3,
		PostOptimize:     true,
		AdjustIterations: 3,
		MILP:             milp.Options{MaxNodes: 600},
		Workers:          1,
		Envelopes:        envelopes,
		PitchH:           0.2,
		PitchV:           0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	table3Plans[envelopes] = fp
	return fp
}

// TestTable3Golden routes the four configurations of bench.Table3 on
// ami33 (bare or envelope floorplan, shortest or weighted router, pitch
// 0.2) and pins every result bit for bit. A change to the router's
// search must leave these routes exactly as they are.
func TestTable3Golden(t *testing.T) {
	golden := []struct {
		envelopes                  bool
		alg                        Algorithm
		overflow                   int
		wirelength, finalW, finalH uint64 // math.Float64bits
	}{
		{false, ShortestPath, 1695, 0x40c8c250f234986a, 0x40641aa5d5df5260, 0x4067a343a8ef016b},
		{false, WeightedShortestPath, 1668, 0x40d01c31ab33235a, 0x40656c3078467d64, 0x40678054e07778a1},
		{true, ShortestPath, 1124, 0x40c9dc60370349f5, 0x4064a8d202ea765e, 0x40653e42901133a0},
		{true, WeightedShortestPath, 684, 0x40cd808e330ca1aa, 0x40633ba56e606311, 0x4064bb8795a89eea},
	}
	for _, g := range golden {
		r, err := Route(table3Plan(t, g.envelopes), Config{Algorithm: g.alg, PitchH: 0.2, PitchV: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{r.Wirelength, r.FinalW, r.FinalH}
		want := [3]uint64{g.wirelength, g.finalW, g.finalH}
		for k, name := range []string{"wirelength", "final width", "final height"} {
			if math.Float64bits(got[k]) != want[k] {
				t.Errorf("envelopes=%v %v: %s %v, golden %v",
					g.envelopes, g.alg, name, got[k], math.Float64frombits(want[k]))
			}
		}
		if r.Overflow != g.overflow {
			t.Errorf("envelopes=%v %v: overflow %d, golden %d", g.envelopes, g.alg, r.Overflow, g.overflow)
		}
	}
}
