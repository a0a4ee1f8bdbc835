package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// MaxRandomN bounds the module count Builtin accepts for "rand". The
// service resolves generated designs inside the HTTP handler, before
// admission control, and the generator allocates n modules and 4n nets,
// so without a bound a one-line request could exhaust the process's
// memory. 1,000 is 20x ami49, the largest built-in design.
const MaxRandomN = 1000

// Builtin resolves a built-in design by name, ignoring case: "ami33",
// "ami49", or "rand", the Random design of n modules (0 < n <=
// MaxRandomN) drawn from seed. n and seed only matter for "rand". The
// solve service and the floorplan command both resolve their design
// names here.
func Builtin(name string, n int, seed int64) (*Design, error) {
	switch strings.ToLower(name) {
	case "ami33":
		return AMI33(), nil
	case "ami49":
		return AMI49(), nil
	case "rand":
		if n <= 0 || n > MaxRandomN {
			return nil, fmt.Errorf("generate %q requires 0 < n <= %d", name, MaxRandomN)
		}
		return Random(n, seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q (want ami33, ami49 or rand)", name)
}

// AMI33TotalArea is the total module area of the ami33 benchmark reported
// in Section 4 of the paper; the synthetic stand-in below matches it
// exactly so that the paper's chip-utilization percentages are directly
// comparable.
const AMI33TotalArea = 11520.0

// AMI33 builds a deterministic synthetic stand-in for the MCNC Physical
// Design Workshop 1988 "ami33" benchmark: 33 modules whose areas sum to
// exactly 11520, a mix of rigid (rotatable) and flexible shapes, per-side
// pin counts, and 123 locality-biased multi-pin nets of which a handful
// are timing-critical.
//
// The original MCNC file is not redistributable here; the paper's
// evaluation depends on module count, total area, shape mix and
// connectivity structure, all of which this generator reproduces (see
// DESIGN.md, substitutions table).
func AMI33() *Design {
	d := generate("ami33", 33, AMI33TotalArea, 123, 8, rand.New(rand.NewSource(19880501)))
	return d
}

// AMI49TotalArea is the total module area used by the synthetic ami49
// stand-in (49 modules at the ami33-like average block size).
const AMI49TotalArea = 17150.0

// AMI49 builds a deterministic synthetic stand-in for the larger MCNC
// benchmark ami49 (49 modules), used by the scaling extension benchmarks
// beyond the paper's own Table 1 sizes.
func AMI49() *Design {
	return generate("ami49", 49, AMI49TotalArea, 180, 10, rand.New(rand.NewSource(19880502)))
}

// Random builds a deterministic random design with n modules, mirroring
// the randomly generated 15/20/25-module instances of Table 1. Module
// areas average ~350 units (the ami33 average), keeping utilization
// figures comparable across sizes.
func Random(n int, seed int64) *Design {
	rng := rand.New(rand.NewSource(seed))
	nets := 4 * n // ami33-like net-to-module ratio
	return generate(fmt.Sprintf("rand%d", n), n, 349.0*float64(n), nets, n/4, rng)
}

func generate(name string, n int, totalArea float64, nNets, nCritical int, rng *rand.Rand) *Design {
	d := &Design{Name: name}

	// Draw raw area weights with a heavy-ish tail (real designs mix RAMs
	// with small glue blocks), then scale to the exact total.
	weights := make([]float64, n)
	var wSum float64
	for i := range weights {
		w := math.Exp(rng.NormFloat64() * 0.8) // lognormal
		weights[i] = w
		wSum += w
	}
	for i := 0; i < n; i++ {
		area := totalArea * weights[i] / wSum
		m := Module{Name: fmt.Sprintf("m%02d", i+1)}
		if i%3 == 2 {
			// Every third module is flexible with symmetric aspect bounds, the
			// "arbitrary combinations of rigid and flexible modules" the
			// abstract advertises.
			m.Kind = Flexible
			m.Area = area
			m.MinAspect = 0.5
			m.MaxAspect = 2.0
		} else {
			m.Kind = Rigid
			aspect := 0.4 + rng.Float64()*2.1 // w/h in [0.4, 2.5]
			m.W = math.Sqrt(area * aspect)
			m.H = area / m.W
			m.Rotatable = true
		}
		// Pins: 4..13 total, spread over the four sides.
		total := 4 + rng.Intn(10)
		for p := 0; p < total; p++ {
			m.Pins[rng.Intn(4)]++
		}
		d.Modules = append(d.Modules, m)
	}

	// Locality-biased nets: modules with nearby indices are more likely to
	// share nets, giving the linear-ordering heuristic something to exploit.
	// A net joins at least two distinct modules, so a one-module design
	// has none.
	if n < 2 {
		nNets = 0
	}
	for k := 0; k < nNets; k++ {
		// 2..5 pins, but no more than there are modules to draw them from;
		// capping after the draw keeps every design with n >= 5 unchanged.
		size := min(2+rng.Intn(4), n)
		anchor := rng.Intn(n)
		seen := map[int]bool{anchor: true}
		mods := []int{anchor}
		for len(mods) < size {
			// Geometric-ish jump from the anchor.
			off := 1 + rng.Intn(6)
			if rng.Intn(2) == 0 {
				off = -off
			}
			cand := anchor + off
			if rng.Float64() < 0.25 {
				cand = rng.Intn(n) // occasional long-range net
			}
			if cand < 0 || cand >= n || seen[cand] {
				// Fall back to a uniform pick to guarantee progress.
				cand = rng.Intn(n)
				if seen[cand] {
					continue
				}
			}
			seen[cand] = true
			mods = append(mods, cand)
		}
		net := Net{Name: fmt.Sprintf("n%03d", k+1), Modules: mods, Weight: 1}
		if k < nCritical {
			net.Critical = true
		}
		d.Nets = append(d.Nets, net)
	}
	return d
}
