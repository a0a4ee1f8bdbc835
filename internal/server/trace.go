package server

import (
	"io"
	"sync"

	"afp/internal/obs"
)

// traceBuffer is an obs.Sink keeping a job's telemetry in memory, the
// one store that both /v1/jobs/{id}/trace and the live SSE stream read.
// Its memory is bounded, so a runaway solve cannot grow the server
// without limit: once the log holds max events, per-node events
// (obs.Kind.PerNode, about 99% of a solve's events) are counted and
// dropped, and every other event is kept until the log holds 2×max, so
// a long solve still reports each step and progress probe. The
// truncation is made visible by a final synthetic "trace.truncated"
// line on output.
//
// The retained events are kept as compact binary records (obs.EventLog,
// about 22 bytes per branch-and-bound event against an Event's 336) and
// decoded only when the trace is served. Readers snapshot the log under
// mu and decode after releasing it, so serving a long trace never holds
// up the solver's Emit.
type traceBuffer struct {
	mu           sync.Mutex
	max          int
	maxFollowers int
	log          obs.EventLog  // guarded by mu
	dropped      int64         // guarded by mu
	followers    int           // guarded by mu
	wake         chan struct{} // guarded by mu
}

// kindTruncated marks the synthetic closing event of a truncated trace;
// its Nodes field carries the dropped-event count.
const kindTruncated obs.Kind = "trace.truncated"

// defaultMaxFollowers bounds concurrent SSE followers per job.
const defaultMaxFollowers = 32

func newTraceBuffer(max int) *traceBuffer {
	if max <= 0 {
		max = 10000
	}
	return &traceBuffer{max: max, maxFollowers: defaultMaxFollowers}
}

// Emit implements obs.Sink. The solver's progress path reaches here
// with its pool lock held (the trace buffer is one of the job's fanned-
// out sinks), which the analyzer cannot see through the obs.Sink
// interface; declare the edge so the golden graph records it.
// lockorder: milp.solver.mu -> server.traceBuffer.mu -- emitProgressLocked fans out to the job's trace buffer through obs.Multi
func (b *traceBuffer) Emit(e obs.Event) {
	perNode := e.Kind.PerNode()
	b.mu.Lock()
	if n := b.log.Len(); n >= 2*b.max || perNode && n >= b.max {
		b.dropped++
	} else {
		b.log.Append(&e)
		if !perNode && b.wake != nil {
			close(b.wake)
			b.wake = nil
		}
	}
	b.mu.Unlock()
}

// follow admits one more SSE follower unless the job already has
// maxFollowers; unfollow releases the place.
func (b *traceBuffer) follow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.followers >= b.maxFollowers {
		return false
	}
	b.followers++
	return true
}

func (b *traceBuffer) unfollow() {
	b.mu.Lock()
	b.followers--
	b.mu.Unlock()
}

// next returns a snapshot of the log with the count of events dropped
// so far, and a channel that is closed when the log next appends an
// event the SSE stream carries (one that is not per-node). Taking both
// under one lock means a follower that writes the snapshot and then
// waits on the channel misses no such event.
func (b *traceBuffer) next() (obs.EventLogSnapshot, int64, <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wake == nil {
		b.wake = make(chan struct{})
	}
	return b.log.Snapshot(), b.dropped, b.wake
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
