package afp_test

import (
	"runtime"
	"testing"

	"afp/internal/core"
	"afp/internal/netlist"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestTable1Allocations gates the heap allocations of the paper's Table 1
// solves in perfbench's table1 configuration: group size 3, 600 nodes
// per step, one branch-and-bound worker. A design fails when its
// allocation count or its allocated bytes exceed the committed value by
// more than 10%; runs spread by under 0.1% at GOMAXPROCS 1 and 2. The
// test logs what it measured, so a change that allocates less can commit
// the new values.
func TestTable1Allocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	cfg := core.Config{GroupSize: 3, MILP: quickMILP(), Workers: 1}
	for _, tc := range []struct {
		d             *netlist.Design
		allocs, bytes uint64
	}{
		{netlist.Random(15, 1501), 10_006, 2_002_912},
		{netlist.Random(20, 2001), 14_002, 2_876_984},
		{netlist.Random(25, 2501), 21_146, 4_738_592},
		{netlist.AMI33(), 28_404, 7_104_512},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := core.Floorplan(tc.d, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.d.Name, err)
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d allocations, %d bytes", tc.d.Name, allocs, bytes)
		if allocs > tc.allocs*11/10 || bytes > tc.bytes*11/10 {
			t.Errorf("%s: %d allocations and %d bytes; committed %d and %d, with 10%% allowed",
				tc.d.Name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}
