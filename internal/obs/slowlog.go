package obs

import (
	"sync"
	"time"
)

// SlowEntry is one finished request captured by the slow log. It is
// part of the wire contract (returned verbatim by /v1/debug/slow).
type SlowEntry struct {
	Route       string        `json:"route"`
	Tag         string        `json:"tag,omitempty"`
	Start       time.Time     `json:"start"`
	DurationSec float64       `json:"duration_sec"`
	Phases      []PhaseTiming `json:"phases,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of the most recent requests
// at or above a duration threshold. A threshold of zero records every
// finished span, which keeps /v1/debug/slow useful out of the box; a
// negative threshold disables recording entirely.
type SlowLog struct {
	threshold time.Duration

	mu       sync.Mutex
	buf      []SlowEntry
	next     int
	filled   bool
	recorded uint64
}

// NewSlowLog returns a ring of the given capacity (minimum 1 when
// capacity <= 0 is given) and threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 1
	}
	return &SlowLog{buf: make([]SlowEntry, capacity), threshold: threshold}
}

// Threshold returns the recording threshold.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// RecordSpan captures a finished span with the given total duration.
// It returns whether the entry was recorded.
func (l *SlowLog) RecordSpan(s *Span, d time.Duration) bool {
	if l == nil || s == nil {
		return false
	}
	return l.Record(SlowEntry{
		Route:       s.Route,
		Tag:         s.Tag(),
		Start:       s.Start(),
		DurationSec: d.Seconds(),
		Phases:      s.Phases(),
		Error:       s.Err(),
	})
}

// Record inserts one entry, evicting the oldest once the ring is full.
func (l *SlowLog) Record(e SlowEntry) bool {
	if l == nil || l.threshold < 0 || e.DurationSec < l.threshold.Seconds() {
		return false
	}
	l.mu.Lock()
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.filled = true
	}
	l.recorded++
	l.mu.Unlock()
	return true
}

// Snapshot returns the retained entries, newest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.buf)
	}
	out := make([]SlowEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// Recorded returns the total number of entries ever recorded,
// including ones since evicted from the ring.
func (l *SlowLog) Recorded() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recorded
}

// Len returns how many entries the ring currently retains.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filled {
		return len(l.buf)
	}
	return l.next
}
