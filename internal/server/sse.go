package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"afp/internal/obs"
)

// handleEvents serves GET /v1/jobs/{id}/events: the job's telemetry as
// a Server-Sent Events stream. The stream carries the job's trace (see
// handleTrace) without its per-node events (obs.Kind.PerNode), in
// order, from the first event on whenever the client attaches, and it
// loses none of them: the follower reads the trace buffer's log, and a
// slow one falls behind there without holding up the solver. Comment
// heartbeats keep idle connections alive through proxies. Once the job
// is terminal (done, failed or cancelled) the stream writes the rest of
// the trace, a trace.truncated frame if the trace dropped events, and a
// terminal `event: job` frame carrying the job snapshot; it closes
// silently when the client disconnects. Each trace frame's data is the
// same JSON object a JSONL trace line carries, so SSE consumers and
// trace files share one decoder.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	if !j.trace.follow() {
		httpError(w, http.StatusTooManyRequests, "too many followers for job %s", j.ID)
		return
	}
	defer j.trace.unfollow()
	s.metrics.Count("sse_streams", 1)
	s.metrics.GaugeAdd("sse_clients", 1)
	defer s.metrics.GaugeAdd("sse_clients", -1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	hb := s.cfg.SSEHeartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	// Write failures mean the client is gone; r.Context() observes the
	// disconnect on the next select turn, so frame errors are not fatal.
	var prev obs.EventLogSnapshot
	for {
		// The solver emits its last event before the job turns terminal,
		// so a snapshot taken after that holds the whole trace.
		var terminal bool
		select {
		case <-j.Done():
			terminal = true
		default:
		}
		snap, dropped, wake := j.trace.next()
		snap.Since(prev).Each(func(e obs.Event) {
			if !e.Kind.PerNode() {
				writeSSEEvent(w, e)
			}
		})
		prev = snap
		if terminal {
			if dropped > 0 {
				writeSSEEvent(w, obs.Event{Kind: kindTruncated, Nodes: int(dropped)})
			}
			writeSSETerminal(w, j)
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-wake:
		case <-ticker.C:
			fmt.Fprint(w, ": hb\n\n")
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSEEvent frames one trace event: a default-type SSE message whose
// data line is the event's JSONL encoding (shared with obs.JSONLWriter).
func writeSSEEvent(w http.ResponseWriter, e obs.Event) {
	data, err := obs.MarshalEvent(e)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "data: %s\n\n", data)
}

// writeSSETerminal frames the closing `event: job` message with the
// job's terminal snapshot.
func writeSSETerminal(w http.ResponseWriter, j *Job) {
	view, err := json.Marshal(j.View())
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: job\ndata: %s\n\n", view)
}
