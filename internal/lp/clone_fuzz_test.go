package lp

import (
	"math"
	"math/rand"
	"testing"
)

// flipState mirrors one variable's current bounds so a plain Problem can
// be kept in lockstep with an Incremental under random flips.
type flipState struct {
	lo, hi float64
}

// TestIncrementalFuzzBoundFlips hammers one Incremental with hundreds of
// random SetBounds flips — the exact write pattern branch and bound
// produces — and checks after every flip that the warm-started solution
// matches the dense oracle within 1e-6. This is the guard for
// the per-worker basis cloning of the parallel search: each worker's
// Incremental sees an arbitrary interleaving of bound fixes and
// relaxations, and must never drift from the true optimum.
func TestIncrementalFuzzBoundFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 8; trial++ {
		p := buildBoxLP(rng)
		inc, err := NewIncremental(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nv := p.NumVariables()
		orig := make([]flipState, nv)
		cur := make([]flipState, nv)
		for j := 0; j < nv; j++ {
			lo, hi := p.Bounds(VarID(j))
			orig[j] = flipState{lo, hi}
			cur[j] = orig[j]
		}
		for flip := 0; flip < 300; flip++ {
			j := rng.Intn(nv)
			lo, hi := orig[j].lo, orig[j].hi
			switch rng.Intn(4) {
			case 0: // fix to lower (a "binary to 0" branch)
				hi = lo
			case 1: // fix to upper (a "binary to 1" branch)
				lo = hi
			case 2: // tighten to a random subrange
				a := lo + (hi-lo)*rng.Float64()
				b := a + (hi-a)*rng.Float64()
				lo, hi = a, b
			default: // backtrack: restore the root box
			}
			cur[j] = flipState{lo, hi}
			inc.SetBounds(VarID(j), lo, hi)
			p.SetBounds(VarID(j), lo, hi)

			// Solving after every flip is too slow for 300 flips x 8 trials;
			// check at irregular strides so solved states still cover the
			// whole flip history.
			if flip%7 != 0 {
				continue
			}
			compareWarmCold(t, trial, flip, inc, p)
		}
	}
}

// TestIncrementalCloneIndependence clones a warmed solver mid-sequence
// and verifies (a) the clone immediately agrees with the oracle, and
// (b) further flips on either side never leak into the other — the
// property the per-worker bases of the parallel branch and bound rely
// on.
func TestIncrementalCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 20; trial++ {
		p := buildBoxLP(rng)
		inc, err := NewIncremental(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Solve(); err != nil {
			t.Fatal(err)
		}
		nv := p.NumVariables()

		// Warm the original with a few flips, then clone.
		for k := 0; k < 5; k++ {
			j := VarID(rng.Intn(nv))
			lo, hi := p.Bounds(j)
			mid := lo + (hi-lo)*rng.Float64()
			inc.SetBounds(j, lo, mid)
			p.SetBounds(j, lo, mid)
			if _, err := inc.Solve(); err != nil {
				t.Fatal(err)
			}
		}
		clone := inc.Clone()
		cloneP := p.Clone() // bounds snapshot the clone should keep matching

		// Diverge: mutate only the original.
		for k := 0; k < 6; k++ {
			j := VarID(rng.Intn(nv))
			lo, hi := cloneP.Bounds(j)
			inc.SetBounds(j, lo, lo+(hi-lo)*rng.Float64())
			if _, err := inc.Solve(); err != nil {
				t.Fatal(err)
			}
		}
		// The clone must still solve its own (pre-divergence) bounds state.
		compareWarmCold(t, trial, -1, clone, cloneP)

		// And mutating the clone must not disturb the original: snapshot the
		// original's answer, flip the clone, re-check the original.
		before, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			j := VarID(rng.Intn(nv))
			lo, hi := cloneP.Bounds(j)
			clone.SetBounds(j, lo+(hi-lo)*rng.Float64()/2, hi)
			if _, err := clone.Solve(); err != nil {
				t.Fatal(err)
			}
		}
		after, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if before.Status != after.Status {
			t.Fatalf("trial %d: clone mutation changed original status %v -> %v", trial, before.Status, after.Status)
		}
		if before.Status == StatusOptimal && math.Abs(before.Objective-after.Objective) > 1e-9 {
			t.Fatalf("trial %d: clone mutation changed original objective %v -> %v", trial, before.Objective, after.Objective)
		}
	}
}

// compareWarmCold solves the warm side and the dense oracle and requires
// agreement on status and (at optimality) objective within 1e-6, plus
// primal feasibility of the warm point.
func compareWarmCold(t *testing.T, trial, flip int, inc *Incremental, p *Problem) {
	t.Helper()
	warm, err := inc.Solve()
	if err != nil {
		t.Fatalf("trial %d flip %d: warm solve: %v", trial, flip, err)
	}
	cold := oracleSolve(p)
	if warm.Status != cold.Status {
		t.Fatalf("trial %d flip %d: warm %v vs cold %v", trial, flip, warm.Status, cold.Status)
	}
	if warm.Status != StatusOptimal {
		return
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Fatalf("trial %d flip %d: warm obj %v != cold %v", trial, flip, warm.Objective, cold.Objective)
	}
	if v := p.MaxViolation(warm.X); v > 1e-6 {
		t.Fatalf("trial %d flip %d: warm point violates by %v", trial, flip, v)
	}
}
