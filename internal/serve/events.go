package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/serve/api"
)

// Server-push job progress: GET /v1/jobs/{id}/events streams the job's
// observable mutations as Server-Sent Events, built directly on the job
// store's version-cursor Await. Each frame's SSE id is the job version,
// so a client that reconnects with Last-Event-ID resumes exactly where
// its connection dropped — the stream is state-synchronizing (each event
// carries a full snapshot), so "resume" means "send me anything newer
// than version N", never a replayed backlog. The stream ends after the
// terminal event; a job already terminal yields that single event.

// handleJobEvents serves the SSE stream.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cursor, ok := sseCursor(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeAPIError(w, http.StatusInternalServerError,
			api.Errorf(api.CodeInternal, "response writer cannot stream"))
		return
	}
	// The 404 must beat the stream headers: check existence before
	// committing to text/event-stream.
	if _, exists := s.Job(id); !exists {
		writeJobNotFound(w, id)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ctx := r.Context()
	for {
		snap, err := s.jobs.Await(ctx, id, cursor)
		if err != nil {
			// Client gone, server shutting down, or the job was evicted by
			// retention mid-stream. The stream has no in-band error channel
			// once committed; end it and let the client's resume logic (or
			// its GET fallback) observe the condition.
			return
		}
		ev := api.JobEvent{Type: api.JobEventProgress, Job: snap}
		if snap.Done() {
			ev.Type = api.JobEventTerminal
		}
		if err := writeSSE(w, snap.Version, ev); err != nil {
			return
		}
		flusher.Flush()
		if snap.Done() {
			return
		}
		cursor = snap.Version
	}
}

// sseCursor extracts the resume cursor: the standard Last-Event-ID
// header (set automatically by EventSource reconnects), with a
// ?last_event_id= query fallback for clients that cannot set headers.
// Absent means 0 — "send me the current state first".
func sseCursor(w http.ResponseWriter, r *http.Request) (int64, bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0, true
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 0 {
		writeAPIError(w, http.StatusBadRequest,
			api.Errorf(api.CodeInvalidRequest, "Last-Event-ID must be a non-negative integer, got %q", raw))
		return 0, false
	}
	return n, true
}

// writeSSE frames one event. The data payload is a single JSON object
// (api.JobEvent), so it never contains a bare newline that would need
// multi-line data: framing.
func writeSSE(w http.ResponseWriter, id int64, ev api.JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, ev.Type, data)
	return err
}
