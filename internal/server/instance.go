// Package server exposes the floorplanner as a long-running HTTP/JSON
// service: asynchronous solve jobs over a bounded worker pool, per-job
// cancellation and deadlines threaded down to the simplex pivot loop,
// an LRU result cache keyed by a canonical instance hash, and the obs
// telemetry layer surfaced as per-job JSONL traces and a /metrics
// endpoint. cmd/floorpland is the thin binary around it.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"afp/internal/core"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
)

// SolveRequest is the body of POST /v1/solve. Exactly one of Design and
// Generate must be set: Design carries the instance inline, Generate
// names a built-in benchmark generator ("ami33", "ami49", "rand" with N
// and Seed). Generated designs are expanded before hashing, so a
// generated request and the equivalent inline design share a cache key.
type SolveRequest struct {
	Design   *DesignSpec `json:"design,omitempty"`
	Generate string      `json:"generate,omitempty"`
	// N is the module count for the "rand" generator.
	N int `json:"n,omitempty"`
	// Seed drives the "rand" generator.
	Seed    int64        `json:"seed,omitempty"`
	Options SolveOptions `json:"options"`
}

// SolveOptions selects and tunes the solver. The zero value means: the
// paper's successive-augmentation MILP, automatic chip width, area
// objective, library defaults everywhere, no deadline.
type SolveOptions struct {
	// Backend selects the solution paradigm: "milp" (the default) for the
	// paper's successive augmentation, "portfolio" to race every paradigm
	// with a shared incumbent board, or one contestant ("anneal",
	// "seqpair", "project") run as a race of one. Every paradigm solves
	// at the job's chip width under its objective. Unlike TimeoutMS, the
	// backend changes which floorplan comes back, so it is part of the
	// cache key.
	Backend string `json:"backend,omitempty"`
	// ChipWidth fixes the chip width; 0 selects it from the module area.
	ChipWidth float64 `json:"chipWidth,omitempty"`
	// GroupSize is the augmentation group size e; 0 means 4.
	GroupSize int `json:"groupSize,omitempty"`
	// Objective is "area" (default) or "areawire".
	Objective string `json:"objective,omitempty"`
	// WireWeight is the wirelength lambda of the areawire objective.
	WireWeight float64 `json:"wireWeight,omitempty"`
	// PostOptimize runs the Section 2.5 fixed-topology LP afterwards.
	PostOptimize bool `json:"postOptimize,omitempty"`
	// AnnealSeed seeds the stochastic contestants of the portfolio and
	// anneal, seqpair and project backends; the milp backend ignores it.
	AnnealSeed int64 `json:"annealSeed,omitempty"`
	// TimeoutMS is the per-job solve deadline in milliseconds; 0 means
	// none. Deadlines are enforced down in the pivot loops, and a job cut
	// off mid-solve reports its best partial floorplan. The deadline is
	// deliberately NOT part of the cache key: only complete results are
	// cached, and a complete result is valid under any deadline.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// Workers is the branch-and-bound worker count inside this job's MILP
	// subproblems. 0 (the default) means serial: the pool already runs
	// jobs concurrently, so jobs don't claim extra cores unless asked.
	// The server caps the value so pool×workers never oversubscribes the
	// host, and keys the cache on the capped count: with more than one
	// worker the search, and so the floorplan, can differ, so requests
	// share a cached result only when they run with the same count.
	Workers int `json:"workers,omitempty"`
}

// DesignSpec is the inline JSON form of a netlist.Design.
type DesignSpec struct {
	Name    string       `json:"name,omitempty"`
	Modules []ModuleSpec `json:"modules"`
	Nets    []NetSpec    `json:"nets,omitempty"`
}

// ModuleSpec is one module of an inline design.
type ModuleSpec struct {
	Name string `json:"name"`
	// Kind is "rigid" (default) or "flexible".
	Kind      string  `json:"kind,omitempty"`
	W         float64 `json:"w,omitempty"`
	H         float64 `json:"h,omitempty"`
	Rotatable bool    `json:"rotatable,omitempty"`
	Area      float64 `json:"area,omitempty"`
	MinAspect float64 `json:"minAspect,omitempty"`
	MaxAspect float64 `json:"maxAspect,omitempty"`
	// Pins are the per-side pin counts in north, east, south, west order.
	Pins [4]int `json:"pins,omitempty"`
}

// NetSpec is one net of an inline design; modules are named.
type NetSpec struct {
	Name     string   `json:"name,omitempty"`
	Modules  []string `json:"modules"`
	Weight   float64  `json:"weight,omitempty"`
	Critical bool     `json:"critical,omitempty"`
}

// Instance is a fully resolved, validated solve request: the concrete
// design plus normalized options, ready to hash and to solve.
type Instance struct {
	Design *netlist.Design
	Opts   SolveOptions
}

// Resolve expands and validates a request into an Instance. Generator
// references are expanded to concrete designs and option defaults are
// filled in, so that every request equivalent to this one resolves to a
// byte-identical canonical form.
func Resolve(req *SolveRequest) (*Instance, error) {
	if (req.Design == nil) == (req.Generate == "") {
		return nil, fmt.Errorf("exactly one of design and generate must be set")
	}
	var d *netlist.Design
	var err error
	if req.Design != nil {
		d, err = req.Design.toDesign()
	} else {
		d, err = netlist.Builtin(req.Generate, req.N, req.Seed)
	}
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("invalid design: %w", err)
	}

	opts := req.Options
	switch opts.Backend {
	case "", "milp":
		// The MILP reads no seed: clear it so requests that differ only
		// in annealSeed hash equal.
		opts.Backend = "milp"
		opts.AnnealSeed = 0
	case "portfolio", "anneal", "seqpair", "project":
	default:
		return nil, fmt.Errorf("unknown backend %q (want milp, portfolio, anneal, seqpair or project)", opts.Backend)
	}
	switch opts.Objective {
	case "", "area":
		opts.Objective = "area"
	case "areawire":
	default:
		return nil, fmt.Errorf("unknown objective %q (want area or areawire)", opts.Objective)
	}
	if opts.GroupSize <= 0 {
		opts.GroupSize = 4
	}
	if opts.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeoutMs must be >= 0")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("workers must be >= 0")
	}
	return &Instance{Design: d, Opts: opts}, nil
}

// toDesign converts the inline spec, resolving net members by name.
func (s *DesignSpec) toDesign() (*netlist.Design, error) {
	d := &netlist.Design{Name: s.Name}
	if d.Name == "" {
		d.Name = "inline"
	}
	byName := make(map[string]int, len(s.Modules))
	for i, ms := range s.Modules {
		if ms.Name == "" {
			return nil, fmt.Errorf("module %d: missing name", i)
		}
		if _, dup := byName[ms.Name]; dup {
			return nil, fmt.Errorf("duplicate module %q", ms.Name)
		}
		byName[ms.Name] = i
		m := netlist.Module{Name: ms.Name, Pins: ms.Pins}
		switch strings.ToLower(ms.Kind) {
		case "", "rigid":
			m.Kind = netlist.Rigid
			m.W, m.H, m.Rotatable = ms.W, ms.H, ms.Rotatable
		case "flexible":
			m.Kind = netlist.Flexible
			m.Area, m.MinAspect, m.MaxAspect = ms.Area, ms.MinAspect, ms.MaxAspect
		default:
			return nil, fmt.Errorf("module %q: unknown kind %q", ms.Name, ms.Kind)
		}
		d.Modules = append(d.Modules, m)
	}
	for i, ns := range s.Nets {
		n := netlist.Net{Name: ns.Name, Weight: ns.Weight, Critical: ns.Critical}
		if n.Name == "" {
			n.Name = fmt.Sprintf("n%d", i)
		}
		for _, name := range ns.Modules {
			mi, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("net %q references unknown module %q", n.Name, name)
			}
			n.Modules = append(n.Modules, mi)
		}
		d.Nets = append(d.Nets, n)
	}
	return d, nil
}

// canonicalInstance is the hashed form. Every field that changes the
// solve outcome appears here; the deadline does not (see
// SolveOptions.TimeoutMS).
type canonicalInstance struct {
	Modules []netlist.Module
	Nets    []canonicalNet
	Backend string
	Width   float64
	Group   int
	Obj     string
	Lambda  float64
	Post    bool
	Seed    int64
	Workers int
}

type canonicalNet struct {
	Modules  []int
	Weight   float64
	Critical bool
}

// Key returns the canonical cache key: a sha256 over the normalized
// instance. Names are excluded (renaming a module does not change the
// floorplan), net order is normalized, and generator requests hash the
// generated design itself.
func (in *Instance) Key() string {
	c := canonicalInstance{
		Modules: in.Design.Modules,
		Backend: in.Opts.Backend,
		Width:   in.Opts.ChipWidth,
		Group:   in.Opts.GroupSize,
		Obj:     in.Opts.Objective,
		Lambda:  in.Opts.WireWeight,
		Post:    in.Opts.PostOptimize,
		Seed:    in.Opts.AnnealSeed,
		Workers: in.Opts.Workers,
	}
	// Strip names so that renamings hash equal.
	c.Modules = append([]netlist.Module(nil), c.Modules...)
	for i := range c.Modules {
		c.Modules[i].Name = ""
	}
	for _, n := range in.Design.Nets {
		mods := append([]int(nil), n.Modules...)
		sort.Ints(mods)
		c.Nets = append(c.Nets, canonicalNet{Modules: mods, Weight: n.Weight, Critical: n.Critical})
	}
	sort.Slice(c.Nets, func(i, j int) bool {
		a, b := c.Nets[i], c.Nets[j]
		for k := 0; k < len(a.Modules) && k < len(b.Modules); k++ {
			if a.Modules[k] != b.Modules[k] {
				return a.Modules[k] < b.Modules[k]
			}
		}
		if len(a.Modules) != len(b.Modules) {
			return len(a.Modules) < len(b.Modules)
		}
		//vet:allow toleq -- the canonical cache-key ordering must be exact and total
		if a.Weight != b.Weight {
			return a.Weight < b.Weight
		}
		return !a.Critical && b.Critical
	})
	blob, err := json.Marshal(&c)
	if err != nil {
		// Marshal of plain structs cannot fail; keep the panic loud if the
		// schema ever grows an unmarshalable field.
		panic(fmt.Sprintf("server: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// coreConfig maps the normalized options onto the augmentation solver,
// which also gives a portfolio race its width and objective.
func (in *Instance) coreConfig() core.Config {
	cfg := core.Config{
		ChipWidth:    in.Opts.ChipWidth,
		GroupSize:    in.Opts.GroupSize,
		WireWeight:   in.Opts.WireWeight,
		PostOptimize: in.Opts.PostOptimize,
		Workers:      in.Opts.Workers,
	}
	if in.Opts.Objective == "areawire" {
		cfg.Objective = mipmodel.AreaWire
	}
	return cfg
}
