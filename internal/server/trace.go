package server

import (
	"encoding/json"
	"io"
	"sync"

	"afp/internal/obs"
)

// traceBuffer is an obs.Sink retaining a bounded prefix of a job's
// telemetry in memory so it can be served back as JSONL. Once the cap is
// reached further events are counted but dropped — a runaway solve must
// not grow server memory without bound — and the truncation is made
// visible by a final synthetic "trace.truncated" line on output.
//
// The retained events are kept as compact binary records (obs.EventLog,
// about 22 bytes per branch-and-bound event against an Event's 336) and
// decoded only when the trace is served. Readers snapshot the log under
// mu and decode after releasing it, so serving a long trace never holds
// up the solver's Emit.
//
// It doubles as the fan-out point for live SSE followers: subscribe
// atomically snapshots the retained prefix and registers a channel that
// receives every later event, so a follower sees each event exactly once
// (no gap, no duplicate) regardless of when it attaches. Live fan-out is
// not subject to the retention cap: a follower of a runaway solve still
// sees the events the buffer drops.
type traceBuffer struct {
	mu      sync.Mutex
	max     int
	maxSubs int
	log     obs.EventLog           // guarded by mu
	dropped int64                  // guarded by mu
	subs    map[*traceSub]struct{} // guarded by mu
}

// traceSub is one live follower of a job's trace. Events are delivered
// on ch with nonblocking sends: a follower that cannot keep up loses
// events (counted in lost) instead of stalling the solver.
type traceSub struct {
	ch   chan obs.Event
	lost int64 // guarded by server.traceBuffer.mu; the owning buffer's lock
}

// kindTruncated marks the synthetic closing event of a truncated trace;
// its Nodes field carries the dropped-event count.
const kindTruncated obs.Kind = "trace.truncated"

// defaultMaxSubs bounds concurrent SSE followers per job.
const defaultMaxSubs = 32

func newTraceBuffer(max int) *traceBuffer {
	if max <= 0 {
		max = 10000
	}
	return &traceBuffer{max: max, maxSubs: defaultMaxSubs}
}

// Emit implements obs.Sink. The solver's progress path reaches here
// with its pool lock held (the trace buffer is one of the job's fanned-
// out sinks), which the analyzer cannot see through the obs.Sink
// interface; declare the edge so the golden graph records it.
// lockorder: milp.solver.mu -> server.traceBuffer.mu -- emitProgressLocked fans out to the job's trace buffer through obs.Multi
func (b *traceBuffer) Emit(e obs.Event) {
	b.mu.Lock()
	if b.log.Len() < b.max {
		b.log.Append(&e)
	} else {
		b.dropped++
	}
	structural := isStructuralKind(e.Kind)
	for sub := range b.subs {
		select {
		case sub.ch <- e:
		default:
			if !structural {
				sub.lost++
				continue
			}
			// Structural frames (step/search boundaries) carry the state
			// the stream's per-step contracts hang on — e.g. the SSE gap
			// monotonicity reset. Evict the oldest queued event instead of
			// dropping the boundary, so a slow follower loses data probes
			// but never a step marker.
			select {
			case <-sub.ch:
				sub.lost++
			default:
			}
			select {
			case sub.ch <- e:
			default:
				sub.lost++
			}
		}
	}
	b.mu.Unlock()
}

// isStructuralKind reports whether an event delimits the solve's
// structure rather than sampling its progress; these are rare (a handful
// per solve) and live followers must not lose them to back-pressure.
func isStructuralKind(k obs.Kind) bool {
	switch k {
	case obs.KindStepStart, obs.KindStepDone, obs.KindSearchDone, obs.KindSearchParallel:
		return true
	}
	return false
}

// subscribe atomically snapshots the retained events and registers a
// live follower with a buffered delivery channel, so replay-then-follow
// over the pair misses nothing emitted in between. The replay is decoded
// from the snapshot after the lock is released. It fails when the
// per-job follower cap is reached.
func (b *traceBuffer) subscribe(buf int) ([]obs.Event, *traceSub, bool) {
	if buf <= 0 {
		buf = 256
	}
	b.mu.Lock()
	if len(b.subs) >= b.maxSubs {
		b.mu.Unlock()
		return nil, nil, false
	}
	snap := b.log.Snapshot()
	sub := &traceSub{ch: make(chan obs.Event, buf)}
	if b.subs == nil {
		b.subs = make(map[*traceSub]struct{})
	}
	b.subs[sub] = struct{}{}
	b.mu.Unlock()

	replay := make([]obs.Event, 0, snap.Len())
	snap.Each(func(e obs.Event) { replay = append(replay, e) })
	return replay, sub, true
}

// unsubscribe detaches a follower; its channel is no longer written to
// once unsubscribe returns. Returns how many events the follower lost
// to back-pressure.
func (b *traceBuffer) unsubscribe(sub *traceSub) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.subs, sub)
	return sub.lost
}

// WriteJSONL writes the retained events as one JSON object per line,
// matching the obs.JSONLWriter format byte for byte (including its
// non-finite-float handling), so traces fetched over the API and traces
// written by the CLI -trace flag are interchangeable.
func (b *traceBuffer) WriteJSONL(w io.Writer) error {
	b.mu.Lock()
	snap := b.log.Snapshot()
	dropped := b.dropped
	b.mu.Unlock()

	jw := obs.NewJSONLWriter(w)
	snap.Each(jw.Emit)
	if dropped > 0 {
		jw.Emit(obs.Event{Kind: kindTruncated, Nodes: int(dropped)})
	}
	return jw.Err()
}

// Len reports the number of retained events (for tests and /v1/jobs).
func (b *traceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Len()
}

// lines decodes the buffered trace back into generic JSON objects; test
// helper for validating the JSONL framing.
func (b *traceBuffer) lines() ([]map[string]any, error) {
	var sb jsonlCollector
	if err := b.WriteJSONL(&sb); err != nil {
		return nil, err
	}
	return sb.objs, sb.err
}

// jsonlCollector incrementally decodes written JSONL, line by line.
type jsonlCollector struct {
	buf  []byte
	objs []map[string]any
	err  error
}

func (c *jsonlCollector) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	for {
		i := -1
		for j, ch := range c.buf {
			if ch == '\n' {
				i = j
				break
			}
		}
		if i < 0 {
			return len(p), nil
		}
		line := c.buf[:i]
		c.buf = c.buf[i+1:]
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil && c.err == nil {
			c.err = err
		} else {
			c.objs = append(c.objs, obj)
		}
	}
}
