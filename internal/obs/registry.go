// Package obs is the process-wide observability layer: a lock-cheap
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms — zero allocations on the hot path), epoch-lifecycle span
// tracing across generate → pipeline → encode → ship → decode → ingest
// → snapshot → replicate → ack, a structured decision trace for every
// runtime adaptation (load-factor changes, proxy state transitions,
// HA promotion/fencing, shipper failover), and an introspection HTTP
// server exposing /metrics (Prometheus text exposition), /status and
// /debug/pprof on a live node.
//
// The registry keeps the dynamic name-keyed API the old
// metrics.CounterSet exposed (Inc/Add/Set/Get/Snapshot/String, all
// nil-receiver safe), so per-instance transport and HA counters carry
// over unchanged, and adds typed handles (Counter, Gauge, FloatGauge,
// Histogram) that resolve the name once and update with a single atomic
// op afterwards. obs imports only the standard library; every other
// package may instrument itself freely without import cycles.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// enabled gates the timing side of instrumentation (Now returns the
// zero time when off, so Since and histogram updates no-op). Counters
// and gauges stay live either way — they are single atomic adds.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled switches epoch-lifecycle timing on or off process-wide.
// benchmark/ uses it to measure the instrumentation delta, obs.sat_overhead_pct.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether lifecycle timing is on.
func Enabled() bool { return enabled.Load() }

// Now returns the current time, or the zero time when observability
// timing is disabled — Since treats a zero start as "don't record", so
// a disabled build pays neither clock read.
func Now() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

// metric is one registered time series: a named atomic cell, or a
// histogram's bucket array.
type metric struct {
	family   string // metric family name, e.g. "epochs_applied"
	labelKey string // optional single label, e.g. "stage"
	labelVal string
	kind     kind
	val      atomic.Int64 // counter/gauge value; FloatGauge stores Float64bits
	h        *histogram
}

func (m *metric) key() string { return metricKey(m.family, m.labelVal) }

func metricKey(family, labelVal string) string {
	if labelVal == "" {
		return family
	}
	return family + "\x00" + labelVal
}

// histogram is a fixed-bound latency histogram. Bounds are upper bucket
// edges in seconds; observations are linear-scanned into the first
// bucket that holds them (the bound slice is small and cache-resident).
type histogram struct {
	bounds   []float64
	counts   []atomic.Int64 // len(bounds)+1; last is +Inf
	count    atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for ; i < len(h.bounds); i++ {
		if sec <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Registry is a set of named metrics. Registration (first use of a
// name) takes a write lock; every subsequent update through a typed
// handle is a single atomic op, and updates through the dynamic
// name-keyed API take only a read lock. A nil *Registry is a valid
// no-op sink, like the nil *metrics.CounterSet it replaces.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: lifecycle stage
// histograms and other cross-subsystem series register here.
func Default() *Registry { return defaultRegistry }

// lookup returns the metric registered under (family, labelVal),
// creating it with the given kind if absent. Returns nil on a nil
// registry or on a kind conflict.
func (r *Registry) lookup(family, labelKey, labelVal string, k kind) *metric {
	if r == nil {
		return nil
	}
	key := metricKey(family, labelVal)
	r.mu.RLock()
	m := r.metrics[key]
	r.mu.RUnlock()
	if m != nil {
		if m.kind != k {
			return nil
		}
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[key]; m != nil {
		if m.kind != k {
			return nil
		}
		return m
	}
	m = &metric{family: family, labelKey: labelKey, labelVal: labelVal, kind: k}
	if k == kindHistogram {
		m.h = &histogram{}
	}
	r.metrics[key] = m
	return m
}

// Counter is a monotonically increasing atomic counter handle. The
// zero Counter is a no-op.
type Counter struct{ m *metric }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c Counter) Add(delta int64) {
	if c.m != nil {
		c.m.val.Add(delta)
	}
}

// Value returns the current count.
func (c Counter) Value() int64 {
	if c.m == nil {
		return 0
	}
	return c.m.val.Load()
}

// Gauge is a settable atomic integer gauge handle. The zero Gauge is a
// no-op.
type Gauge struct{ m *metric }

// Set stores v.
func (g Gauge) Set(v int64) {
	if g.m != nil {
		g.m.val.Store(v)
	}
}

// Value returns the current value.
func (g Gauge) Value() int64 {
	if g.m == nil {
		return 0
	}
	return g.m.val.Load()
}

// FloatGauge is a settable atomic float gauge handle (stored as
// Float64bits). The zero FloatGauge is a no-op.
type FloatGauge struct{ m *metric }

// Set stores v.
func (g FloatGauge) Set(v float64) {
	if g.m != nil {
		g.m.val.Store(int64(floatBits(v)))
	}
}

// Value returns the current value.
func (g FloatGauge) Value() float64 {
	if g.m == nil {
		return 0
	}
	return floatFromBits(uint64(g.m.val.Load()))
}

// Histogram is a fixed-bucket latency histogram handle. The zero
// Histogram is a no-op.
type Histogram struct{ m *metric }

// Observe records one duration.
func (h Histogram) Observe(d time.Duration) {
	if h.m != nil {
		h.m.h.observe(d)
	}
}

// Count returns the number of observations.
func (h Histogram) Count() int64 {
	if h.m == nil {
		return 0
	}
	return h.m.h.count.Load()
}

// Buckets snapshots the histogram: the upper bucket edges in seconds
// and the per-bucket (non-cumulative) counts, len(bounds)+1 with the
// overflow bucket last. The counts slice is appended into buf when it
// has capacity, so steady-state callers (the quantile estimator)
// snapshot without allocating. A zero Histogram returns nils.
func (h Histogram) Buckets(buf []int64) (bounds []float64, counts []int64) {
	if h.m == nil || h.m.h == nil {
		return nil, nil
	}
	hh := h.m.h
	bounds = hh.bounds
	counts = buf[:0]
	for i := range hh.counts {
		counts = append(counts, hh.counts[i].Load())
	}
	return bounds, counts
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) Counter {
	return Counter{r.lookup(name, "", "", kindCounter)}
}

// LabeledCounter returns a counter carrying one constant label (e.g.
// epoch_critical_path_total{segment="ingest"}); series of one family
// share a single # TYPE line in the exposition, like labeled
// histograms.
func (r *Registry) LabeledCounter(name, labelKey, labelVal string) Counter {
	return Counter{r.lookup(name, labelKey, labelVal, kindCounter)}
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) Gauge {
	return Gauge{r.lookup(name, "", "", kindGauge)}
}

// FloatGauge returns (registering on first use) the named float gauge.
func (r *Registry) FloatGauge(name string) FloatGauge {
	return FloatGauge{r.lookup(name, "", "", kindFloatGauge)}
}

// Histogram returns (registering on first use) the named histogram with
// the given upper bucket bounds in seconds. Bounds are fixed at first
// registration; later callers share the existing buckets.
func (r *Registry) Histogram(name string, bounds []float64) Histogram {
	return r.LabeledHistogram(name, "", "", bounds)
}

// LabeledHistogram returns a histogram carrying one constant label
// (e.g. stage_latency_seconds{stage="ingest"}). Series of one family
// are grouped under a single # TYPE line in the exposition.
func (r *Registry) LabeledHistogram(name, labelKey, labelVal string, bounds []float64) Histogram {
	m := r.lookup(name, labelKey, labelVal, kindHistogram)
	if m != nil && len(m.h.bounds) == 0 && len(bounds) > 0 {
		r.mu.Lock()
		if len(m.h.bounds) == 0 {
			b := append([]float64(nil), bounds...)
			sort.Float64s(b)
			m.h.bounds = b
			m.h.counts = make([]atomic.Int64, len(b)+1)
		}
		r.mu.Unlock()
	}
	return Histogram{m}
}

// Inc adds one to the named counter (dynamic name-keyed API, kept
// compatible with the old metrics.CounterSet).
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds delta to the named counter.
func (r *Registry) Add(name string, delta int64) {
	if m := r.lookup(name, "", "", kindCounter); m != nil {
		m.val.Add(delta)
	}
}

// Set stores v in the named gauge.
func (r *Registry) Set(name string, v int64) {
	if m := r.lookup(name, "", "", kindGauge); m != nil {
		m.val.Store(v)
	}
}

// Get returns the named counter or gauge value, zero if absent. A nil
// registry reads zero.
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	m := r.metrics[name]
	r.mu.RUnlock()
	if m == nil || m.kind == kindHistogram || m.kind == kindFloatGauge {
		return 0
	}
	return m.val.Load()
}

// Snapshot returns the current counter and gauge values by name.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.metrics))
	for key, m := range r.metrics {
		if m.kind == kindCounter || m.kind == kindGauge {
			out[key] = m.val.Load()
		}
	}
	return out
}

// String renders the counters and gauges sorted by name, the same
// "name=value" form the old CounterSet printed on shutdown.
func (r *Registry) String() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	s := ""
	for i, name := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", name, snap[name])
	}
	return s
}
