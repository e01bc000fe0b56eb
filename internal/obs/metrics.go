package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All operations are
// lock-free atomics, cheap enough for hot kernels.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored: counters are
// monotone by contract).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) writeProm(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

func (c *Counter) snapshotInto(m map[string]any) { m[c.name] = c.Value() }

// Gauge is a metric that can go up and down (occupancy, sizes).
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Add moves the gauge by d (either sign).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set sets the gauge to an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) writeProm(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.Value())
}

func (g *Gauge) snapshotInto(m map[string]any) { m[g.name] = g.Value() }

// FuncGauge exposes an externally maintained value (e.g. a counter owned
// by another package) through the registry without double bookkeeping.
type FuncGauge struct {
	name, help string
	fn         func() int64
}

func (g *FuncGauge) metricName() string { return g.name }

func (g *FuncGauge) writeProm(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.fn())
}

func (g *FuncGauge) snapshotInto(m map[string]any) { m[g.name] = g.fn() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts per upper bound, plus sum and count. Observe is lock-free.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf is implicit
	counts     []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64
}

// DefDurationBuckets are the default buckets for duration-in-seconds
// histograms: 1ms … ~2min, exponential.
var DefDurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Bounds are ascending and short; linear scan beats binary search at
	// this size and stays branch-predictable.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) writeProm(w io.Writer) {
	writeHeader(w, h.name, h.help, "histogram")
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatBound(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.Count())
	fmt.Fprintf(w, "%s_sum %s\n", h.name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.Count())
}

func (h *Histogram) snapshotInto(m map[string]any) {
	m[h.name+"_count"] = h.Count()
	m[h.name+"_sum"] = h.Sum()
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// metric is the common interface of registered instruments.
type metric interface {
	metricName() string
	writeProm(w io.Writer)
	snapshotInto(m map[string]any)
}

// Registry holds named metrics. Get-or-create registration keeps
// instrument definitions next to their call sites (package-level vars in
// the instrumented packages) without central coordination. All methods
// are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	byName map[string]metric
	order  []metric // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// Default is the process-wide registry every instrumented package
// registers into; ServeMetrics exposes it.
var Default = NewRegistry()

func (r *Registry) register(name string, make_ func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := make_()
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the named counter, creating it on first use. Requesting
// an existing name with a different instrument kind panics: metric names
// are a process-wide contract.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{name: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{name: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return g
}

// FuncGauge registers a function-backed gauge, creating it on first use.
func (r *Registry) FuncGauge(name, help string, fn func() int64) *FuncGauge {
	m := r.register(name, func() metric { return &FuncGauge{name: name, help: help, fn: fn} })
	g, ok := m.(*FuncGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use (nil selects
// DefDurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, func() metric {
		if bounds == nil {
			bounds = DefDurationBuckets
		}
		h := &Histogram{name: name, help: help, bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds))
		return h
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return h
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), metrics in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range ms {
		m.writeProm(w)
	}
}

// Snapshot returns a point-in-time view of every metric, keyed by metric
// name (histograms contribute _count and _sum entries). Keys are
// JSON-friendly; the map is freshly allocated.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	ms := append([]metric(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		m.snapshotInto(out)
	}
	return out
}

// expvarPublished guards duplicate expvar.Publish calls (expvar panics on
// re-publication; tests and repeated servers share one process).
var expvarPublished sync.Map

// PublishExpvar exposes the registry's snapshot as one expvar map under
// the given name (idempotent per name). expvar renders it through
// encoding/json, which writes map keys sorted.
func (r *Registry) PublishExpvar(name string) {
	if _, loaded := expvarPublished.LoadOrStore(name, true); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
