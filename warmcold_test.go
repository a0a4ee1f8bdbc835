package afp

import (
	"math/rand"
	"testing"

	"afp/internal/geom"
	"afp/internal/lp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
)

// TestWarmColdNodeAgreement is the end-to-end check of warm starting on
// a real floorplanning subproblem (not the small synthetic LPs that
// internal/lp's tests compare against the dense oracle): identical
// random integer bound-fix patterns — the exact shape of branch-and-bound
// node bounds — must give the same LP status and objective through one
// incremental solver repairing its previous basis and through a cold
// solve from the slack basis. Equally-optimal vertices among
// dual-degenerate ties may differ; node-level objectives must not.
func TestWarmColdNodeAgreement(t *testing.T) {
	d := netlist.Random(12, 99)
	spec := &mipmodel.Spec{
		ChipWidth: 80,
		Obstacles: []geom.Rect{
			geom.NewRect(0, 0, 30, 20), geom.NewRect(30, 0, 50, 12), geom.NewRect(30, 12, 20, 9),
		},
	}
	for i := 0; i < 4; i++ {
		spec.New = append(spec.New, mipmodel.NewModule{Index: i, Mod: &d.Modules[i]})
	}
	built, err := mipmodel.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := built.Model.P
	ints := built.Model.Ints
	inc, err := lp.NewIncremental(p, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	mismatch := 0
	for trial := 0; trial < 400; trial++ {
		saved := make(map[lp.VarID][2]float64)
		for _, v := range ints {
			lo, hi := p.Bounds(v)
			saved[v] = [2]float64{lo, hi}
			if rng.Intn(2) == 0 {
				val := float64(rng.Intn(2))
				inc.SetBounds(v, val, val)
				p.SetBounds(v, val, val)
			} else {
				inc.SetBounds(v, 0, 1)
				p.SetBounds(v, 0, 1)
			}
		}
		warm, werr := inc.Solve()
		cold, cerr := p.SolveOpts(lp.Options{})
		if werr != nil || cerr != nil {
			t.Fatalf("trial %d: warm err %v cold err %v", trial, werr, cerr)
		}
		if (warm.Status == lp.StatusOptimal) != (cold.Status == lp.StatusOptimal) {
			mismatch++
			t.Errorf("trial %d: warm %v vs cold %v", trial, warm.Status, cold.Status)
		} else if warm.Status == lp.StatusOptimal {
			if diff := warm.Objective - cold.Objective; diff > 1e-6 || diff < -1e-6 {
				mismatch++
				t.Errorf("trial %d: warm obj %.9f cold obj %.9f", trial, warm.Objective, cold.Objective)
			}
		}
		for v, b := range saved {
			inc.SetBounds(v, b[0], b[1])
			p.SetBounds(v, b[0], b[1])
		}
		if mismatch > 5 {
			t.Fatal("too many mismatches")
		}
	}
}
