package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {endpoint="knn"}. Labels are fixed
// at registration time: a labeled family pre-registers one handle per
// label value, so increments never format or look anything up.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing metric. The zero value is usable
// but a Counter should be obtained from a Registry so it is scraped.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//metriclint:noalloc
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Add adds n (n must be >= 0 to keep the counter monotone).
//
//metriclint:noalloc
func (c *Counter) Add(n int64) {
	c.v.Add(n)
}

// Value reads the current count.
//
//metriclint:noalloc
func (c *Counter) Value() int64 {
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depths, in-flight
// requests, resident bytes).
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
//
//metriclint:noalloc
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease) and returns the
// new value — callers like the admission queue use the returned depth
// for control decisions, which keeps the metric and the decision on one
// shared atomic.
//
//metriclint:noalloc
func (g *Gauge) Add(delta int64) int64 {
	return g.v.Add(delta)
}

// Value reads the gauge.
//
//metriclint:noalloc
func (g *Gauge) Value() int64 {
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: Observe(v) increments the first bucket whose upper bound is
// >= v (le semantics), plus an implicit +Inf bucket, and accumulates
// the sum of observations. Bucket bounds are fixed at registration, so
// observations are a short linear scan plus two atomic updates — no
// allocation, no lock.
type Histogram struct {
	bounds []float64      // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// Observe records one value.
//
//metriclint:noalloc
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) of everything observed
// so far, the way Prometheus' histogram_quantile does: find the bucket
// the rank q·count falls in and interpolate linearly between its bounds
// (the first bucket starts at 0). Mass in the +Inf bucket reports the
// highest finite bound; an empty histogram reports 0. The estimate is
// within one bucket width of the exact sample quantile.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, cumulative, _, count := h.snapshot()
	if count == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(count)
	i := 0
	for i < len(bounds) && float64(cumulative[i]) < rank {
		i++
	}
	if i == len(bounds) {
		return bounds[len(bounds)-1]
	}
	lo, below := 0.0, int64(0)
	if i > 0 {
		lo, below = bounds[i-1], cumulative[i-1]
	}
	in := cumulative[i] - below
	if in == 0 {
		return lo // q = 0 with an empty leading bucket
	}
	return lo + (bounds[i]-lo)*(rank-float64(below))/float64(in)
}

// snapshot reads bounds plus cumulative bucket counts, the sum and the
// total count in one sweep. Concurrent Observes may land between bucket
// reads; each bucket is individually exact and the count is derived
// from the same sweep, so the invariant count == +Inf cumulative holds.
func (h *Histogram) snapshot() (bounds []float64, cumulative []int64, sum float64, count int64) {
	cumulative = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return h.bounds, cumulative, math.Float64frombits(h.sum.Load()), running
}

// DefLatencyBuckets spans 50µs to 10s — wide enough for a cache hit at
// the bottom and a pathological disk-index scan at the top.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// DefSizeBuckets is a power-of-two ladder for batch sizes and similar
// small-count distributions.
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// kind discriminates the metric families a Registry holds.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// expoType is the TYPE line each kind exposes under.
func (k kind) expoType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered handle: a family name, a rendered label set,
// and exactly one live value source per kind.
type metric struct {
	name   string
	labels string // rendered `k="v",k2="v2"`, empty when unlabeled
	help   string
	kind   kind

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() float64
}

// Registry is a set of named metrics. Registration is idempotent —
// asking for an existing (name, labels) pair returns the same handle,
// which makes re-instrumentation after an index swap safe — and
// concurrency-safe; the returned handles are lock-free.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	byName  map[string]kind // family name -> kind, enforced consistent
	metrics []*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:  make(map[string]*metric),
		byName: make(map[string]kind),
	}
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, kindCounter, nil, labels)
	return m.c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, nil, labels)
	return m.g
}

// Histogram returns the histogram registered under name+labels with the
// given ascending bucket upper bounds (a +Inf bucket is implicit),
// creating it on first use. Buckets are fixed by the first registration
// of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending at %d", name, i))
		}
	}
	m := r.registerHist(name, help, buckets, labels)
	return m.h
}

// CounterFunc registers a pull-based counter: fn is read at scrape and
// snapshot time. Use it to expose an existing monotone counter (cache
// hits, pager reads, compdists) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounterFunc, fn, labels)
}

// GaugeFunc registers a pull-based gauge (current epoch, resident
// bytes, queue depth read from another subsystem).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, fn, labels)
}

func (r *Registry) register(name, help string, k kind, fn func() float64, labels []Label) *metric {
	checkName(name)
	key := name + "\x00" + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byKey[key]; m != nil {
		if m.kind != k {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, k.expoType(), m.kind.expoType()))
		}
		return m
	}
	if prev, ok := r.byName[name]; ok && prev != k {
		panic(fmt.Sprintf("obs: family %s holds %s and %s metrics", name, prev.expoType(), k.expoType()))
	}
	m := &metric{name: name, labels: renderLabels(labels), help: help, kind: k, fn: fn}
	switch k {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	}
	r.byKey[key] = m
	r.byName[name] = k
	r.metrics = append(r.metrics, m)
	return m
}

func (r *Registry) registerHist(name, help string, buckets []float64, labels []Label) *metric {
	checkName(name)
	key := name + "\x00" + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byKey[key]; m != nil {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("obs: %s re-registered as histogram (was %s)", name, m.kind.expoType()))
		}
		return m
	}
	if prev, ok := r.byName[name]; ok && prev != kindHistogram {
		panic(fmt.Sprintf("obs: family %s holds %s and histogram metrics", name, prev.expoType()))
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
	}
	m := &metric{name: name, labels: renderLabels(labels), help: help, kind: kindHistogram, h: h}
	r.byKey[key] = m
	r.byName[name] = kindHistogram
	r.metrics = append(r.metrics, m)
	return m
}

// sorted returns the metrics ordered by (family, labels) for stable
// exposition, grouping each family's samples together.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// value reads the metric's current scalar (histograms are handled
// separately by the exposition and snapshot writers).
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.c.Value())
	case kindGauge:
		return float64(m.g.Value())
	case kindCounterFunc, kindGaugeFunc:
		return m.fn()
	}
	return 0
}

// checkName enforces the Prometheus metric-name charset at registration
// so a bad name fails loudly in tests, not silently in a scraper.
func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// renderLabels renders the inner `k="v",...` label string once at
// registration. Values are escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}
