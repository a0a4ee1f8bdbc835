package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"afp/internal/obs"
)

// handleEvents serves GET /v1/jobs/{id}/events: the job's telemetry as
// a Server-Sent Events stream. The stream replays every retained trace
// event and then follows the live feed, so a client attaching at any
// point sees each event exactly once; comment heartbeats keep idle
// connections alive through proxies. The stream closes with a terminal
// `event: job` frame carrying the job snapshot once the job reaches a
// terminal state (done, failed or cancelled), or silently when the
// client disconnects. Each trace frame's data is the same JSON object a
// JSONL trace line carries, so SSE consumers and trace files share one
// decoder. Live events a slow follower loses to back-pressure are added
// to the sse_lost_events counter when its stream ends, and a stream that
// reaches the terminal frame also reports them in a comment.
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
	replay, sub, ok := j.trace.subscribe(0)
	if !ok {
		httpError(w, http.StatusTooManyRequests, "too many followers for job %s", j.ID)
		return
	}
	// unsubscribe repeats its count, so this deferred call counts the
	// follower's losses once whichever way the stream ends.
	defer func() { s.metrics.Count("sse_lost_events", j.trace.unsubscribe(sub)) }()
	s.metrics.Count("sse_streams", 1)
	s.metrics.GaugeAdd("sse_clients", 1)
	defer s.metrics.GaugeAdd("sse_clients", -1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Write failures mean the client is gone; r.Context() observes the
	// disconnect on the next select turn, so frame errors are not fatal
	// here and the deferred unsubscribe cleans up either way.
	replay.Each(func(e obs.Event) { writeSSEEvent(w, e) })
	fl.Flush()

	hb := s.cfg.SSEHeartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	for {
		select {
		case e := <-sub.ch:
			writeSSEEvent(w, e)
			// Batch whatever else is already queued into one flush.
			for {
				select {
				case e := <-sub.ch:
					writeSSEEvent(w, e)
					continue
				default:
				}
				break
			}
			fl.Flush()
		case <-ticker.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case <-j.Done():
			// The solver emitted its last event before the job turned
			// terminal, so after detaching the subscription the channel
			// drains to a complete stream.
			lost := j.trace.unsubscribe(sub)
			for {
				select {
				case e := <-sub.ch:
					writeSSEEvent(w, e)
					continue
				default:
				}
				break
			}
			if lost > 0 {
				fmt.Fprintf(w, ": lost %d events to back-pressure\n\n", lost)
			}
			writeSSETerminal(w, j)
			fl.Flush()
			return
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
