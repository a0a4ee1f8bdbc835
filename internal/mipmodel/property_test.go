package mipmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/netlist"
)

// Randomized end-to-end property: build random small subproblems, solve
// them, and assert the decoded placement invariants — no overlaps, inside
// the chip, obstacles respected, flexible areas conserved.
func TestRandomSpecsDecodeLegally(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		nNew := 2 + rng.Intn(3)
		var mods []netlist.Module
		for i := 0; i < nNew; i++ {
			if rng.Intn(3) == 0 {
				mods = append(mods, netlist.Module{
					Name: fmt.Sprintf("f%d", i), Kind: netlist.Flexible,
					Area:      4 + float64(rng.Intn(20)),
					MinAspect: 0.4, MaxAspect: 2.5,
				})
			} else {
				mods = append(mods, netlist.Module{
					Name: fmt.Sprintf("r%d", i), Kind: netlist.Rigid,
					W: 1 + float64(rng.Intn(5)), H: 1 + float64(rng.Intn(5)),
					Rotatable: rng.Intn(2) == 0,
				})
			}
		}
		spec := &Spec{ChipWidth: 10 + float64(rng.Intn(8))}
		for i := range mods {
			spec.New = append(spec.New, NewModule{Index: i, Mod: &mods[i]})
		}
		// Random staircase obstacles on the floor.
		if rng.Intn(2) == 0 {
			x := 0.0
			for x < spec.ChipWidth-2 && rng.Intn(3) != 0 {
				w := 2 + float64(rng.Intn(4))
				if x+w > spec.ChipWidth {
					break
				}
				spec.Obstacles = append(spec.Obstacles,
					geom.NewRect(x, 0, w, 1+float64(rng.Intn(4))))
				x += w
			}
		}

		b, err := Build(spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// One worker is the deterministic reference. Four workers share the
		// pool even where GOMAXPROCS is 1, so every host gates the
		// multi-worker search; where both prove optimality the optima agree.
		var ref *milp.Result
		for _, workers := range []int{1, 4} {
			res := milp.Solve(b.Model, milp.Options{MaxNodes: 3000, Workers: workers})
			tag := fmt.Sprintf("trial %d, Workers %d", trial, workers)
			if res.X == nil {
				t.Fatalf("%s: no solution (%v)", tag, res.Status)
			}
			if ref == nil {
				ref = res
			} else if ref.Status == milp.StatusOptimal && res.Status == milp.StatusOptimal &&
				math.Abs(res.Objective-ref.Objective) > 1e-6*math.Max(1, math.Abs(ref.Objective)) {
				t.Fatalf("%s: optimum %v, one worker proved %v", tag, res.Objective, ref.Objective)
			}
			pls := b.Decode(res.X)
			envs := make([]geom.Rect, len(pls))
			for i, p := range pls {
				envs[i] = p.Env
			}
			if i, j, bad := geom.AnyOverlap(envs); bad {
				t.Fatalf("%s: modules %d/%d overlap: %v %v", tag, i, j, envs[i], envs[j])
			}
			for i, p := range pls {
				if p.Env.X < -1e-6 || p.Env.X2() > spec.ChipWidth+1e-6 || p.Env.Y < -1e-6 {
					t.Fatalf("%s: module %d outside chip: %v", tag, i, p.Env)
				}
				for k, o := range spec.Obstacles {
					if p.Env.Overlaps(o) {
						t.Fatalf("%s: module %d overlaps obstacle %d", tag, i, k)
					}
				}
				m := &mods[p.Index]
				if m.Kind == netlist.Flexible {
					if a := p.Mod.Area(); a < m.Area-1e-6 || a > m.Area+1e-6 {
						t.Fatalf("%s: flexible area %v, want %v", tag, a, m.Area)
					}
				}
				if b.HeightOf(res.X) < p.Env.Y2()-1e-6 {
					t.Fatalf("%s: height %v below module top %v",
						tag, b.HeightOf(res.X), p.Env.Y2())
				}
			}
		}
	}
}
