package serve

import (
	"context"
	"testing"
	"time"
)

// TestTunerWidth covers the width policy: serial first probe, serial for
// sub-floor layers, cost-proportional width for expensive layers, and the
// maxWidth clamp.
func TestTunerWidth(t *testing.T) {
	var tu searchTuner
	if w := tu.width("a|l", 256, 8); w != 1 {
		t.Fatalf("unknown layer width = %d, want 1 (serial probe)", w)
	}
	// Cheap layer: 1µs/candidate is below the fan-out floor.
	tu.observe("a|l", 100, 1, 100*time.Microsecond)
	if w := tu.width("a|l", 256, 8); w != 1 {
		t.Fatalf("sub-floor layer width = %d, want 1", w)
	}
	// Expensive layer: 100µs/candidate over 256 candidates is ~25ms of
	// work; the tuner should ask for the full width.
	tu.observe("a|heavy", 100, 1, 10*time.Millisecond)
	if w := tu.width("a|heavy", 256, 8); w != 8 {
		t.Fatalf("heavy layer width = %d, want 8 (clamped)", w)
	}
	// Small budget on the same layer: proportionally narrower.
	if w := tu.width("a|heavy", 8, 8); w >= 8 {
		t.Fatalf("8-candidate search got width %d; expected narrower than the clamp", w)
	}
	if w := tu.width("a|heavy", 256, 0); w != 1 {
		t.Fatalf("maxWidth 0 must clamp to 1, got %d", w)
	}
}

// TestTunerObserveNormalizesWidth pins the anti-oscillation rule: a
// search that ran 4-wide reports 4x its wall time as work, so the EWMA
// stays the per-candidate cost and the chosen width is stable instead of
// halving after every wide search.
func TestTunerObserveNormalizesWidth(t *testing.T) {
	var serialTu, wideTu searchTuner
	// Same underlying work (100 candidates x 100µs): serially it takes
	// 10ms, 4-wide it takes 2.5ms of wall time.
	serialTu.observe("k", 100, 1, 10*time.Millisecond)
	wideTu.observe("k", 100, 4, 2500*time.Microsecond)
	ws := serialTu.width("k", 256, 16)
	ww := wideTu.width("k", 256, 16)
	if ws != ww {
		t.Fatalf("width after serial observation %d != after wide observation %d", ws, ww)
	}
}

// TestAdaptiveServerMatchesStaticAnswers checks the default server (zero
// options = adaptive width) returns answers identical to an explicitly
// serial server, while its healthz budget section reports the adaptive
// counters.
func TestAdaptiveServerMatchesStaticAnswers(t *testing.T) {
	adaptive := NewServer(BatchOptions{})
	serial := NewServer(BatchOptions{SearchWorkers: -1})
	if !adaptive.SearchStats().Adaptive {
		t.Fatal("zero-value server did not report adaptive mode")
	}
	if serial.SearchStats().Adaptive {
		t.Fatal("SearchWorkers < 0 still reported adaptive mode")
	}
	req := Request{Macro: "base", Network: "toy", MaxMappings: 16, Seed: 5}
	want, err := serial.EvaluateCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Twice, so the second pass runs with a measured (tuned) width.
	for pass := 0; pass < 2; pass++ {
		got, err := adaptive.EvaluateCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.EnergyJ != want.EnergyJ || got.MappingsEvaluated != want.MappingsEvaluated {
			t.Fatalf("pass %d: adaptive diverged: %+v vs %+v", pass, got, want)
		}
	}
	st := adaptive.SearchStats()
	if st.AdaptivePlans == 0 || st.TunedLayers == 0 {
		t.Fatalf("adaptive counters not advancing: %+v", st)
	}
	if st.Available != st.Capacity {
		t.Fatalf("budget leaked under adaptive mode: %d of %d", st.Available, st.Capacity)
	}
}
