package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/jobs"
)

// sseFrame is one parsed SSE event for assertions.
type sseFrame struct {
	id    int64
	event string
	data  api.JobEvent
}

// sseScanner wraps one stream connection; frames must be read through a
// single scanner or buffered bytes are lost between reads.
func sseScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return sc
}

// nextFrame reads one SSE frame; ok is false on EOF/disconnect.
func nextFrame(t *testing.T, sc *bufio.Scanner) (sseFrame, bool) {
	t.Helper()
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data.Type != "" {
				return cur, true
			}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		}
	}
	return sseFrame{}, false
}

// readFrames consumes frames until limit frames, a terminal event, or
// EOF.
func readFrames(t *testing.T, r io.Reader, limit int) []sseFrame {
	t.Helper()
	sc := sseScanner(r)
	var frames []sseFrame
	for len(frames) < limit {
		f, ok := nextFrame(t, sc)
		if !ok {
			return frames
		}
		frames = append(frames, f)
		if f.event == api.JobEventTerminal {
			return frames
		}
	}
	return frames
}

// stepJob submits a job the test advances item by item.
func stepJob(t *testing.T, srv *Server, total int) (id string, step chan struct{}) {
	t.Helper()
	step = make(chan struct{})
	snap, err := srv.jobs.Submit("stepped", total, func(ctx context.Context, report jobs.Report) (any, error) {
		for i := 0; i < total; i++ {
			select {
			case <-step:
				report(i, map[string]any{"item": i}, nil)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return "final table", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap.ID, step
}

// openStream connects to the events endpoint, optionally resuming.
func openStream(t *testing.T, ts *httptest.Server, id string, lastEventID int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	return resp
}

// TestSSEStreamToTerminal: the stream delivers monotonically versioned
// progress events and ends with a terminal event carrying the full
// snapshot. The second step is sent only once the first one's progress
// frame has arrived: the stream sends the latest state, so two steps
// sent together may arrive as one terminal frame.
func TestSSEStreamToTerminal(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, step := stepJob(t, srv, 2)
	resp := openStream(t, ts, id, 0)
	defer resp.Body.Close()
	go func() { step <- struct{}{} }()

	sc := sseScanner(resp.Body)
	var frames []sseFrame
	for len(frames) == 0 || frames[len(frames)-1].data.Job.Completed == 0 {
		f, ok := nextFrame(t, sc)
		if !ok {
			t.Fatalf("stream ended before the first progress report, after %d frames", len(frames))
		}
		frames = append(frames, f)
	}
	go func() { step <- struct{}{} }()
	for frames[len(frames)-1].event != api.JobEventTerminal {
		f, ok := nextFrame(t, sc)
		if !ok {
			break
		}
		frames = append(frames, f)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d frames", len(frames))
	}
	last := frames[len(frames)-1]
	if last.event != api.JobEventTerminal || last.data.Type != api.JobEventTerminal {
		t.Fatalf("final frame: %+v", last)
	}
	if last.data.Job.Status != jobs.StatusSucceeded || last.data.Job.Completed != 2 {
		t.Fatalf("terminal snapshot: %+v", last.data.Job)
	}
	if last.data.Job.Result != "final table" || len(last.data.Job.Results) != 2 {
		t.Fatalf("terminal payloads: %+v", last.data.Job)
	}
	var prev int64
	for _, f := range frames {
		if f.id <= prev {
			t.Fatalf("versions not strictly increasing: %+v", frames)
		}
		if f.id != f.data.Job.Version {
			t.Fatalf("SSE id %d != snapshot version %d", f.id, f.data.Job.Version)
		}
		prev = f.id
	}
}

// TestSSEResumeAfterDisconnect: a client that drops mid-stream and
// reconnects with Last-Event-ID sees only news — no replayed versions —
// and still reaches the terminal event.
func TestSSEResumeAfterDisconnect(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, step := stepJob(t, srv, 3)
	resp := openStream(t, ts, id, 0)
	// First connection: read up to the first progress report, then drop.
	go func() { step <- struct{}{} }()
	sc := sseScanner(resp.Body)
	var cursor int64
	for cursor == 0 {
		f, ok := nextFrame(t, sc)
		if !ok {
			t.Fatal("stream ended before the first progress report")
		}
		if f.data.Job.Completed > 0 {
			cursor = f.id
		}
	}
	resp.Body.Close() // simulated disconnect

	// Finish the job while nobody is connected.
	go func() { step <- struct{}{}; step <- struct{}{} }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := srv.Job(id)
		if snap.Done() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Resume: everything the second stream sends must be newer than the
	// cursor, and the terminal event must arrive immediately.
	resp2 := openStream(t, ts, id, cursor)
	defer resp2.Body.Close()
	frames := readFrames(t, resp2.Body, 64)
	if len(frames) == 0 {
		t.Fatal("resumed stream sent nothing")
	}
	for _, f := range frames {
		if f.id <= cursor {
			t.Fatalf("resumed stream replayed version %d (cursor %d)", f.id, cursor)
		}
	}
	if last := frames[len(frames)-1]; last.event != api.JobEventTerminal || last.data.Job.Completed != 3 {
		t.Fatalf("resumed terminal: %+v", last)
	}
}

// TestSSEErrors: unknown jobs 404 with the envelope before any stream
// bytes; malformed cursors are invalid_request.
func TestSSEErrors(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	_, do := testClient(t, srv)

	status, out := do("GET", "/v1/jobs/job-999999/events", "")
	if code, _ := envelope(t, out); status != http.StatusNotFound || code != "not_found" {
		t.Fatalf("unknown job stream: %d %v", status, out)
	}
	status, out = do("GET", "/v1/jobs/job-000001/events?last_event_id=banana", "")
	if code, _ := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("bad cursor: %d %v", status, out)
	}
}

// TestLongPollVersionCursor: GET /v1/jobs/{id}?after_version=N parks
// until news (or the wait window ends) — the fallback transport behind
// `cimloop jobs wait`.
func TestLongPollVersionCursor(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	_, do := testClient(t, srv)

	id, step := stepJob(t, srv, 1)
	// Stale cursor answers immediately.
	status, snap := do("GET", "/v1/jobs/"+id+"?after_version=0", "")
	if status != http.StatusOK {
		t.Fatalf("stale poll: %d %v", status, snap)
	}
	ver := int64(snap["version"].(float64))
	if ver < 1 {
		t.Fatalf("version %v", snap)
	}

	// Fresh cursor parks until the job moves.
	type res struct {
		status int
		snap   map[string]any
	}
	ch := make(chan res, 1)
	go func() {
		st, out := do("GET", "/v1/jobs/"+id+"?after_version="+strconv.FormatInt(ver, 10)+"&wait_sec=30", "")
		ch <- res{st, out}
	}()
	select {
	case r := <-ch:
		// The job hasn't moved; the poll must not return instantly unless
		// it raced the runner's start transition — accept only a newer
		// version.
		if int64(r.snap["version"].(float64)) <= ver {
			t.Fatalf("long-poll returned stale state: %v", r.snap)
		}
	case <-time.After(50 * time.Millisecond):
		// Parked, as expected: now release the item and the poll returns.
		step <- struct{}{}
		select {
		case r := <-ch:
			if r.status != http.StatusOK || int64(r.snap["version"].(float64)) <= ver {
				t.Fatalf("long-poll after news: %+v", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("long-poll never returned after news")
		}
	}
	// Out-of-range wait windows are rejected.
	status, out := do("GET", "/v1/jobs/"+id+"?after_version=0&wait_sec=3600", "")
	if code, _ := envelope(t, out); status != http.StatusBadRequest || code != "invalid_request" {
		t.Fatalf("huge wait_sec: %d %v", status, out)
	}
	// A zero-window poll on an unchanged version still answers 200 with
	// the current snapshot (pure poll degradation).
	if status, snap := do("GET", "/v1/jobs/"+id+"?after_version=999999&wait_sec=0", ""); status != http.StatusOK || snap["id"] != id {
		t.Fatalf("zero-window poll: %d %v", status, snap)
	}
}
