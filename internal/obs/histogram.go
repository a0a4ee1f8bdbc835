package obs

import "math"

// DefaultBuckets is the fixed bucket ladder shared by every histogram: a
// 1-2.5-5 decade ladder from 1 to 1e7, which covers microsecond-scale
// latencies (1µs .. 10s), branch-and-bound node depths and queue waits
// with one schema. Fixed buckets keep Observe allocation-free after the
// first observation of a name and make snapshots mergeable across
// processes.
var DefaultBuckets = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000,
	1e6, 2.5e6, 5e6, 1e7,
}

// histogram is a fixed-bucket distribution: counts[i] holds observations
// with v <= buckets[i] and v > buckets[i-1]; the final extra slot is the
// +Inf overflow bucket.
// histogram instances live in Metrics.hists and are only reached with
// the registry lock held, so Metrics.mu guards the mutable fields.
type histogram struct {
	buckets []float64 // immutable after newHistogram
	counts  []int64   // guarded by obs.Metrics.mu
	count   int64     // guarded by obs.Metrics.mu
	sum     float64   // guarded by obs.Metrics.mu
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

// locked: obs.Metrics.mu
func (h *histogram) observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := len(h.buckets) // +Inf overflow by default
	for i, ub := range h.buckets {
		if v <= ub {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.count++
	h.sum += v
}

// HistogramSnapshot is a point-in-time copy of one histogram. Counts are
// per-bucket (non-cumulative), aligned with Buckets, with one trailing
// +Inf overflow slot.
type HistogramSnapshot struct {
	Buckets []float64
	Counts  []int64
	Count   int64
	Sum     float64
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket containing it, the usual Prometheus-style estimate.
// It returns 0 on an empty histogram and the largest finite bucket bound
// when the quantile lands in the overflow bucket.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Buckets) {
			return h.Buckets[len(h.Buckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Buckets[i-1]
		}
		if c == 0 {
			return h.Buckets[i]
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + frac*(h.Buckets[i]-lo)
	}
	return h.Buckets[len(h.Buckets)-1]
}

// Observe records one value into the named histogram (latency in
// microseconds, node depth, queue wait — any nonnegative scalar fits the
// shared DefaultBuckets ladder). NaN observations are dropped. Safe (and
// a no-op) on nil.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.hists == nil {
		m.hists = make(map[string]*histogram)
	}
	h := m.hists[name]
	if h == nil {
		h = newHistogram(DefaultBuckets)
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Histograms returns a snapshot of every histogram by name.
func (m *Metrics) Histograms() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot)
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, h := range m.hists {
		out[name] = HistogramSnapshot{
			Buckets: h.buckets,
			Counts:  append([]int64(nil), h.counts...),
			Count:   h.count,
			Sum:     h.sum,
		}
	}
	return out
}

// MetricsSink is an obs.Sink deriving histogram distributions and trust
// counters from the event stream, so a service can aggregate them across
// jobs without threading a Metrics handle through every solver option:
// lp.solve durations land in lp_solve_us, node.close depths in
// node_depth, step.done durations in step_us. LPs stopped at their
// iteration cap count in lp_iterlimit, and augmentation steps whose node
// or time budget ran out before a proof (status feasible or limit) in
// steps_limit.
type MetricsSink struct {
	M *Metrics
}

// Emit implements Sink.
func (s MetricsSink) Emit(e Event) {
	switch e.Kind {
	case KindLPSolve:
		s.M.Observe("lp_solve_us", float64(e.DurUS))
		if e.Status == "iteration-limit" {
			s.M.Count("lp_iterlimit", 1)
		}
	case KindNodeClose:
		s.M.Observe("node_depth", float64(e.Depth))
	case KindStepDone:
		s.M.Observe("step_us", float64(e.DurUS))
		if e.Status == "feasible" || e.Status == "limit" {
			s.M.Count("steps_limit", 1)
		}
	case KindPortfolioIncumbent:
		if e.First {
			// Time-to-first-feasible of the whole race, one sample per solve.
			s.M.Observe("portfolio_ttff_us", float64(e.DurUS))
		}
	case KindPortfolioWin:
		// Per-backend win counters back the /metrics win-rate series.
		s.M.Count("portfolio_wins_"+e.Detail, 1)
	}
}
