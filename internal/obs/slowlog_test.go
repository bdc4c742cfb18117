package obs

import (
	"fmt"
	"testing"
	"time"
)

// TestSlowLogEvictionOrder fills the ring past capacity and checks that
// the oldest entries are evicted and Snapshot returns newest first.
func TestSlowLogEvictionOrder(t *testing.T) {
	l := NewSlowLog(3, 0)
	for i := 0; i < 5; i++ {
		ok := l.Record(SlowEntry{Route: fmt.Sprintf("r%d", i), DurationSec: float64(i)})
		if !ok {
			t.Fatalf("entry %d not recorded", i)
		}
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []string{"r4", "r3", "r2"} {
		if got[i].Route != want {
			t.Errorf("snapshot[%d] = %s, want %s (newest first)", i, got[i].Route, want)
		}
	}
	if l.Recorded() != 5 {
		t.Errorf("Recorded = %d, want 5", l.Recorded())
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
}

func TestSlowLogPartialFill(t *testing.T) {
	l := NewSlowLog(8, 0)
	l.Record(SlowEntry{Route: "a"})
	l.Record(SlowEntry{Route: "b"})
	got := l.Snapshot()
	if len(got) != 2 || got[0].Route != "b" || got[1].Route != "a" {
		t.Errorf("snapshot = %v", got)
	}
}

func TestSlowLogThreshold(t *testing.T) {
	l := NewSlowLog(4, 100*time.Millisecond)
	if l.Record(SlowEntry{Route: "fast", DurationSec: 0.05}) {
		t.Error("sub-threshold entry recorded")
	}
	if !l.Record(SlowEntry{Route: "slow", DurationSec: 0.2}) {
		t.Error("above-threshold entry dropped")
	}
	if !l.Record(SlowEntry{Route: "exact", DurationSec: 0.1}) {
		t.Error("at-threshold entry dropped (threshold is inclusive)")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	// Negative threshold disables recording.
	off := NewSlowLog(4, -1)
	if off.Record(SlowEntry{Route: "x", DurationSec: 10}) {
		t.Error("disabled log recorded an entry")
	}
}

func TestSlowLogRecordSpan(t *testing.T) {
	l := NewSlowLog(2, 0)
	sp := NewSpan("POST /v1/evaluate")
	sp.SetTag("base/toy")
	sp.Observe("search", 40*time.Millisecond)
	sp.SetError("boom")
	if !l.RecordSpan(sp, 50*time.Millisecond) {
		t.Fatal("span not recorded")
	}
	e := l.Snapshot()[0]
	if e.Route != "POST /v1/evaluate" || e.Tag != "base/toy" || e.Error != "boom" {
		t.Errorf("entry = %+v", e)
	}
	if e.DurationSec != 0.05 {
		t.Errorf("duration = %v", e.DurationSec)
	}
	if len(e.Phases) != 1 || e.Phases[0].Phase != "search" {
		t.Errorf("phases = %v", e.Phases)
	}
	var nilLog *SlowLog
	if nilLog.RecordSpan(sp, time.Second) {
		t.Error("nil log recorded")
	}
	if nilLog.Snapshot() != nil || nilLog.Len() != 0 || nilLog.Recorded() != 0 {
		t.Error("nil log should report zero values")
	}
}
