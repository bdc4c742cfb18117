package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestObsTextGolden pins the Prometheus text exposition byte-for-byte.
// A registry populated with every instrument shape must render exactly
// testdata/registry.golden.txt; regenerate deliberately with:
//
//	go test ./internal/obs -run Golden -update
func TestObsTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_requests_total", "Total requests.").Add(3)
	r.CounterVec("demo_dispatches_total", "Dispatches by team.", "team").With("team-a").Add(5)
	r.CounterVec("demo_dispatches_total", "Dispatches by team.", "team").With("team-b").Add(2)
	r.Gauge("demo_queue_depth", "Jobs queued.").Set(4)
	r.GaugeVec("demo_share", "Share by team and class.", "team", "class").With("team-a", "batch").Set(0.25)
	r.GaugeFunc("demo_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.CounterFunc("demo_hits_total", "Cache hits.", func() float64 { return 42 })
	h := r.Histogram("demo_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2)
	hv := r.HistogramVec("demo_phase_seconds", "Phase latency.", []float64{0.1, 1}, "phase")
	hv.With("search").Observe(0.5)
	hv.With("compile").Observe(0.01)
	r.Collect(func(e *Emit) {
		e.Counter("demo_collected_total", "Collector-sourced counter.", 7, "team", "team-a")
		e.Gauge("demo_collected_gauge", "Collector-sourced gauge.", 1.5)
	})

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	golden := filepath.Join("testdata", "registry.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("text output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestObsConcurrentInstruments hammers every instrument kind from many
// goroutines; under -race this is the data-race property test, and the
// final values must be exact (no lost updates).
func TestObsConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	vec := r.CounterVec("cv_total", "", "k")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", []float64{0.5})
	hv := r.HistogramVec("hv_seconds", "", []float64{0.5}, "k")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				vec.With("a").Inc()
				vec.With("b").Add(2)
				g.Add(1)
				h.Observe(0.25)
				h.Observe(0.75)
				hv.With("a").Observe(0.25)
			}
		}(w)
	}
	wg.Wait()

	total := float64(workers * perWorker)
	if got := c.Value(); got != total {
		t.Errorf("counter = %v, want %v", got, total)
	}
	if got := vec.With("a").Value(); got != total {
		t.Errorf("vec[a] = %v, want %v", got, total)
	}
	if got := vec.With("b").Value(); got != 2*total {
		t.Errorf("vec[b] = %v, want %v", got, 2*total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %v, want %v", got, total)
	}
	if got := h.Count(); got != int64(2*total) {
		t.Errorf("histogram count = %v, want %v", got, 2*total)
	}
	if got := h.Sum(); got != total*(0.25+0.75) {
		t.Errorf("histogram sum = %v, want %v", got, total)
	}
	if got := hv.With("a").Count(); got != int64(total) {
		t.Errorf("histogram vec count = %v, want %v", got, total)
	}
}

// TestObsConcurrentScrape interleaves updates with scrapes to make the
// race detector cover the encode path too.
func TestObsConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("s_total", "", "k")
	r.Collect(func(e *Emit) { e.Gauge("s_gauge", "", 1) })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				vec.With(string(rune('a' + i%4))).Inc()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestObsLabelCardinalityBound checks that a labeled family stops
// minting series at the bound and collapses the excess into a single
// {k="other"} overflow series, counted in DroppedLabelSets.
func TestObsLabelCardinalityBound(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("bound_total", "", "k")
	r.SetMaxLabelSets("bound_total", 3)
	for i := 0; i < 10; i++ {
		vec.With(strings.Repeat("x", i+1)).Inc()
	}
	if got := r.DroppedLabelSets(); got != 7 {
		t.Errorf("DroppedLabelSets = %d, want 7", got)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 3 real series + the overflow series; nothing beyond.
	if got := strings.Count(out, "bound_total{"); got != 4 {
		t.Errorf("series count = %d, want 4 (3 + overflow)\n%s", got, out)
	}
	if !strings.Contains(out, `bound_total{k="other"} 7`) {
		t.Errorf("missing overflow series:\n%s", out)
	}
	if !strings.Contains(out, "obs_label_sets_dropped_total 7") {
		t.Errorf("missing dropped-label-sets self metric:\n%s", out)
	}
}

func TestObsReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help")
	b := r.Counter("same_total", "help")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Errorf("re-registered counter should share storage, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different kind should panic")
		}
	}()
	r.Gauge("same_total", "help")
}

func TestObsLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "k").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{k="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped label missing; got:\n%s", buf.String())
	}
}

func TestObsHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "", []float64{1, 2})
	h.Observe(1) // exactly on a bound counts into that bucket (le semantics)
	h.Observe(3) // above all bounds lands only in +Inf
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`edge_seconds_bucket{le="1"} 1`,
		`edge_seconds_bucket{le="2"} 1`,
		`edge_seconds_bucket{le="+Inf"} 2`,
		`edge_seconds_count 2`,
		`edge_seconds_sum 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
