// Package obs is the zero-dependency observability layer of the M2TD
// pipeline: stage spans (Trace/Span), a process-wide metrics registry
// (counters, gauges, histograms with expvar and Prometheus exposition),
// and a structured JSONL event log replayable by cmd/tracecat.
//
// Design rules:
//
//   - Disabled observability is nil-check cheap. Every Span and Trace
//     method is safe on a nil receiver and returns immediately, so
//     instrumented code calls span methods unconditionally: a pipeline
//     run without a trace pays one nil check per call site, nothing else.
//   - Span structure is deterministic. Span names, hierarchy, and the
//     values in Counters depend only on the pipeline configuration —
//     never on the worker count, scheduling, or timing — so a span tree
//     can be asserted structurally in tests (Parallel=1 and Parallel=8
//     produce identical skeletons). Anything timing- or
//     scheduling-dependent (durations, allocation deltas, CPU-strip
//     counts) lives in Gauges, which the skeleton excludes.
//   - The package depends only on the standard library, so any internal
//     package (including the hot kernels in internal/parallel and
//     internal/tensor) may import it without cycles.
package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one node of a trace: a named, timed region of the pipeline with
// deterministic counters, non-deterministic gauges, and child spans.
//
// All methods are safe on a nil receiver (no-ops returning zero values),
// and safe for concurrent use: independent child spans may be filled from
// different goroutines. For a deterministic child ORDER under concurrency,
// create the children serially (Start from one goroutine) and hand each
// child to its goroutine — the M2TD kernels follow this pattern.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	finished bool
	counters map[string]int64
	gauges   map[string]int64
	children []*Span
}

// Trace is the root container of one pipeline run's span tree.
type Trace struct {
	root *Span
}

// New starts a trace whose root span has the given name. The root is
// running until Trace.Finish (or Root().Finish()) is called.
func New(name string) *Trace {
	return &Trace{root: newSpan(name)}
}

// Root returns the root span; nil for a nil trace, so disabled tracing
// flows naturally through span-accepting options.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish finishes the root span.
func (t *Trace) Finish() { t.Root().Finish() }

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Start creates, appends, and starts a child span. Children appear in
// Start-call order; call Start serially when a deterministic order is
// required. On a nil receiver it returns nil, which is itself a valid
// (no-op) span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish records the span's duration. The first call wins; later calls
// are no-ops, so defer-finish plus explicit-finish is safe.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Add accumulates a deterministic counter. Counter values must depend
// only on the pipeline configuration (never on worker count or timing);
// they are part of the structural skeleton asserted in tests.
func (s *Span) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[name] += delta
	s.mu.Unlock()
}

// Set sets a deterministic counter to an absolute value.
func (s *Span) Set(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[name] = v
	s.mu.Unlock()
}

// SetGauge records a non-deterministic vital (allocation delta, CPU-strip
// count, occupancy…). Gauges are serialized but excluded from Skeleton.
func (s *Span) SetGauge(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.gauges == nil {
		s.gauges = make(map[string]int64, 4)
	}
	s.gauges[name] = v
	s.mu.Unlock()
}

// AddGauge accumulates a non-deterministic vital.
func (s *Span) AddGauge(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.gauges == nil {
		s.gauges = make(map[string]int64, 4)
	}
	s.gauges[name] += delta
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (the running duration if the
// span has not finished; 0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return s.dur
	}
	return time.Since(s.start)
}

// Counter returns one deterministic counter's value (0 when absent).
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Children returns a copy of the child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find descends the tree by child names and returns the first match per
// level, or nil when any step is missing.
func (s *Span) Find(path ...string) *Span {
	cur := s
	for _, name := range path {
		if cur == nil {
			return nil
		}
		var next *Span
		for _, c := range cur.Children() {
			if c.Name() == name {
				next = c
				break
			}
		}
		cur = next
	}
	return cur
}

// WithVitals snapshots process vitals (heap allocation count) and returns
// a closure that records the deltas as gauges and finishes the span. Use
// for stage-level spans only: runtime.ReadMemStats is too heavy for
// per-kernel spans. extra optionally supplies additional gauge readers
// (e.g. the parallel pool's strip counter) sampled at both ends.
func (s *Span) WithVitals(extra map[string]func() int64) func() {
	if s == nil {
		return func() {}
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base := make(map[string]int64, len(extra))
	for name, fn := range extra {
		base[name] = fn()
	}
	return func() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.SetGauge("allocs", int64(m1.Mallocs-m0.Mallocs))
		for name, fn := range extra {
			s.SetGauge(name, fn()-base[name])
		}
		s.Finish()
	}
}

// Skeleton renders the deterministic structure of the subtree — names,
// hierarchy, and counters in sorted key order — one span per line,
// indentation showing depth. Durations and gauges are deliberately
// excluded: two runs of the same configuration produce byte-identical
// skeletons at any Parallel value.
func (s *Span) Skeleton() string { return s.Data().Skeleton() }

// SpanData is the immutable, serialization-friendly snapshot of a span
// subtree (the JSONL and tracecat representation).
type SpanData struct {
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"` // relative to the root span's start
	DurNS    int64            `json:"dur_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	Children []*SpanData      `json:"children,omitempty"`
	// Running marks a span snapshotted before its Finish: DurNS is the
	// elapsed time so far, not a duration.
	Running bool `json:"running,omitempty"`
}

// Data snapshots the subtree. Running spans snapshot their current
// elapsed time and are marked Running.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	return s.data(s.startTime())
}

func (s *Span) startTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

func (s *Span) data(origin time.Time) *SpanData {
	s.mu.Lock()
	d := &SpanData{
		Name:    s.name,
		StartNS: s.start.Sub(origin).Nanoseconds(),
	}
	if s.finished {
		d.DurNS = s.dur.Nanoseconds()
	} else {
		d.DurNS = time.Since(s.start).Nanoseconds()
		d.Running = true
	}
	if len(s.counters) > 0 {
		d.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			d.Counters[k] = v
		}
	}
	if len(s.gauges) > 0 {
		d.Gauges = make(map[string]int64, len(s.gauges))
		for k, v := range s.gauges {
			d.Gauges[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.data(origin))
	}
	return d
}

// Skeleton renders the deterministic structure of a snapshot, matching
// Span.Skeleton for the same tree.
func (d *SpanData) Skeleton() string {
	var b strings.Builder
	d.skeleton(&b, 0)
	return b.String()
}

func (d *SpanData) skeleton(b *strings.Builder, depth int) {
	if d == nil {
		return
	}
	keys := make([]string, 0, len(d.Counters))
	for k := range d.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(d.Name)
	if len(keys) > 0 {
		b.WriteString(" [")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s=%d", k, d.Counters[k])
		}
		b.WriteString("]")
	}
	b.WriteString("\n")
	for _, c := range d.Children {
		c.skeleton(b, depth+1)
	}
}

// Find descends the snapshot tree by child names, matching Span.Find.
func (d *SpanData) Find(path ...string) *SpanData {
	cur := d
	for _, name := range path {
		if cur == nil {
			return nil
		}
		var next *SpanData
		for _, c := range cur.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		cur = next
	}
	return cur
}

// Walk visits the snapshot tree depth-first, parents before children.
func (d *SpanData) Walk(fn func(depth int, s *SpanData)) {
	d.walk(0, fn)
}

func (d *SpanData) walk(depth int, fn func(int, *SpanData)) {
	if d == nil {
		return
	}
	fn(depth, d)
	for _, c := range d.Children {
		c.walk(depth+1, fn)
	}
}
