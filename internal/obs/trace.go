package obs

import (
	"context"
	"sync"
	"time"
)

// PhaseTiming is one named phase of a traced request and the total
// time spent in it. Phases accumulate: a sweep item that searches five
// layers records one "search" phase holding the sum.
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// Span is a lightweight trace of one request (an HTTP request or one
// sweep item). It is carried on context.Context through serve → core →
// mapper → persist; layers below serve never import
// it directly — they just pass the context and serve-side wrappers
// attribute the time. All methods are safe for concurrent use and
// nil-safe, so code paths without a span pay one nil check.
type Span struct {
	Route string // bounded route or operation name, e.g. "POST /v1/sweep"

	start time.Time

	mu     sync.Mutex
	tag    string
	errMsg string
	order  []string
	phases map[string]float64
}

// NewSpan starts a span for the given route/operation.
func NewSpan(route string) *Span {
	return &Span{Route: route, start: time.Now(), phases: make(map[string]float64, 6)}
}

// Start returns when the span began.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// SetTag attaches a request-specific detail (e.g. the evaluation tag
// "macro/network/scenario") for the slow log.
func (s *Span) SetTag(tag string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tag = tag
	s.mu.Unlock()
}

// SetError records the terminal error message, if any.
func (s *Span) SetError(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	s.errMsg = msg
	s.mu.Unlock()
}

// Observe adds d to the named phase.
func (s *Span) Observe(phase string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.phases[phase]; !ok {
		s.order = append(s.order, phase)
	}
	s.phases[phase] += d.Seconds()
	s.mu.Unlock()
}

// Phases returns the accumulated phase timings in first-observed order.
func (s *Span) Phases() []PhaseTiming {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PhaseTiming, 0, len(s.order))
	for _, p := range s.order {
		out = append(out, PhaseTiming{Phase: p, Seconds: s.phases[p]})
	}
	return out
}

// Phase returns the accumulated seconds for one phase.
func (s *Span) Phase(name string) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phases[name]
}

// Tag returns the request detail set with SetTag.
func (s *Span) Tag() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tag
}

// Err returns the error message set with SetError.
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg
}

type spanKey struct{}

// ContextWith returns a context carrying the span.
func ContextWith(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ObservePhase adds d to the named phase of the span on ctx, if any.
func ObservePhase(ctx context.Context, phase string, d time.Duration) {
	FromContext(ctx).Observe(phase, d)
}

// Timed starts timing a phase on the span carried by ctx and returns a
// stop function:
//
//	defer obs.Timed(ctx, "compile")()
func Timed(ctx context.Context, phase string) func() {
	s := FromContext(ctx)
	if s == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { s.Observe(phase, time.Since(t0)) }
}
