package portfolio

import (
	"sync"
	"time"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// Incumbent is one entry of the board's incumbent history: a verified
// feasible floorplan that improved on everything published before it.
type Incumbent struct {
	// Source is the backend that produced the floorplan.
	Source string
	// Height is the verified chip height.
	Height float64
	// At is the offset from the race start at which it was published.
	At time.Duration
	// Bound is the board's proven lower bound: the area bound NewBoard
	// sets, the one bound sound for every paradigm.
	Bound float64
}

// Board is the shared incumbent board of a portfolio race. Backends
// publish candidate floorplans; the board verifies each one with the
// same core verify path the service uses and keeps the best, so an
// illegal candidate can never win a race.
type Board struct {
	design *netlist.Design
	width  float64
	bound  float64 // the area bound; fixed by NewBoard
	obs    *obs.Observer
	start  time.Time

	mu       sync.Mutex
	best     *core.Result            // guarded by mu
	bestSrc  string                  // guarded by mu
	haveBest bool                    // guarded by mu
	firstAt  time.Duration           // guarded by mu
	history  []Incumbent             // guarded by mu
	rejected int                     // guarded by mu
	stats    map[string]*sourceStats // guarded by mu
}

// sourceStats entries live in Board.stats and are only handed out by
// statsLocked, so the board lock guards every field.
type sourceStats struct {
	published int     // guarded by portfolio.Board.mu
	rejected  int     // guarded by portfolio.Board.mu
	best      float64 // guarded by portfolio.Board.mu
}

// NewBoard creates an incumbent board for racing backends on design d at
// fixed chip width. The proven lower bound is the area bound
// max(TotalArea/width, tallest minimum module height) — the only bound
// that is sound for every solution paradigm, since the MILP's secant
// linearization overestimates flexible heights and therefore cannot
// bound true packings.
func NewBoard(d *netlist.Design, width float64, o *obs.Observer) *Board {
	b := &Board{
		design: d,
		width:  width,
		obs:    o,
		start:  time.Now(),
		stats:  make(map[string]*sourceStats),
	}
	lb := d.TotalArea() / width
	for i := range d.Modules {
		m := &d.Modules[i]
		var hmin float64
		if m.Kind == netlist.Flexible {
			_, wmax := m.WidthRange()
			hmin = m.HeightFor(wmax)
		} else {
			hmin = m.H
			if m.Rotatable && m.W < hmin {
				hmin = m.W
			}
		}
		if hmin > lb {
			lb = hmin
		}
	}
	b.bound = lb
	return b
}

// Publish offers a candidate floorplan under the given source name. The
// candidate must survive the shared core verify path before it may
// become an incumbent: a missing module, a pairwise overlap, an
// out-of-bounds envelope, a rigid dimension mismatch or a flexible
// area/aspect violation all reject it, so no layout can win the race
// without being a legal floorplan of the full design at the race's chip
// width. Returns whether the candidate became the new board best. Safe
// for concurrent use.
func (b *Board) Publish(source string, res *core.Result) bool {
	if res == nil || len(res.Placements) != len(b.design.Modules) {
		b.reject(source)
		return false
	}
	// Compete at the race width: a packing narrower than W is welcome,
	// one wider is out of bounds.
	cand := *res
	cand.Design = b.design
	if cand.ChipWidth > b.width+geom.Tol {
		b.reject(source)
		return false
	}
	cand.ChipWidth = b.width
	if len(cand.Verify()) > 0 {
		b.reject(source)
		return false
	}

	b.mu.Lock()
	st := b.statsLocked(source)
	st.published++
	if st.published == 1 || cand.Height < st.best {
		st.best = cand.Height
	}
	if b.haveBest && cand.Height >= b.best.Height-geom.Tol {
		b.mu.Unlock()
		return false
	}
	first := !b.haveBest
	at := time.Since(b.start)
	if first {
		b.firstAt = at
	}
	b.best, b.bestSrc, b.haveBest = &cand, source, true
	b.history = append(b.history, Incumbent{Source: source, Height: cand.Height, At: at, Bound: b.bound})
	bound := b.bound
	b.mu.Unlock()

	b.obs.Emit(obs.Event{
		Kind: obs.KindPortfolioIncumbent, Detail: source,
		Height: cand.Height, Bound: bound,
		DurUS: at.Microseconds(), First: first,
	})
	return true
}

func (b *Board) reject(source string) {
	b.mu.Lock()
	b.rejected++
	b.statsLocked(source).rejected++
	b.mu.Unlock()
}

// statsLocked returns the per-source stats entry.
// locked: b.mu
func (b *Board) statsLocked(source string) *sourceStats {
	st := b.stats[source]
	if st == nil {
		st = &sourceStats{}
		b.stats[source] = st
	}
	return st
}

// Bound returns the proven lower bound and its source, "area".
func (b *Board) Bound() (float64, string) { return b.bound, "area" }

// Snapshot returns a copy of the best verified floorplan and its source.
func (b *Board) Snapshot() (*core.Result, string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.haveBest {
		return nil, "", false
	}
	cp := *b.best
	return &cp, b.bestSrc, true
}

// History returns the incumbent improvement sequence in publish order.
func (b *Board) History() []Incumbent {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Incumbent(nil), b.history...)
}

// FirstFeasible returns the offset from the race start at which the
// first verified incumbent landed.
func (b *Board) FirstFeasible() (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.haveBest {
		return 0, false
	}
	return b.firstAt, true
}

// Rejected returns how many candidates failed verification.
func (b *Board) Rejected() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// published returns (publish count, best height) for one source.
func (b *Board) publishedBy(source string) (int, float64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats[source]
	if st == nil || st.published == 0 {
		return 0, 0, false
	}
	return st.published, st.best, true
}
