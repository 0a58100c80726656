package server

import (
	"sync"
	"time"

	"metricindex/internal/obs"
)

// line is one request-statistics line: the obs handles both reporting
// surfaces read. GET /metrics scrapes them as registered; GET /v1/stats
// renders the same atomics as JSON (stats), so the two cannot disagree.
// One line exists per endpoint (family prefix mx_server, label endpoint)
// and per client (prefix mx_server_client, label client).
type line struct {
	reqs, errs, sheds       *obs.Counter
	compDists, pageAccesses *obs.Counter
	lat                     *obs.Histogram
}

// newLine registers (or, registration being idempotent, finds) the six
// handles of one line. The client families carry their own prefix rather
// than a second label on the endpoint families so that summing
// mx_server_requests_total over its series counts every request once.
func newLine(reg *obs.Registry, prefix string, lbl obs.Label) *line {
	return &line{
		reqs: reg.Counter(prefix+"_requests_total",
			"Requests executed (admitted and run, including errored).", lbl),
		errs: reg.Counter(prefix+"_errors_total",
			"Executed requests that returned an error.", lbl),
		sheds: reg.Counter(prefix+"_sheds_total",
			"Requests shed at admission, never executed.", lbl),
		compDists: reg.Counter(prefix+"_compdists_total",
			"Distance computations observed across executed requests (inflated by the overlap factor under concurrency).", lbl),
		pageAccesses: reg.Counter(prefix+"_page_accesses_total",
			"Page accesses observed across executed requests (inflated by the overlap factor under concurrency).", lbl),
		lat: reg.Histogram(prefix+"_request_seconds",
			"Handler latency of executed requests (excludes admission wait).",
			obs.DefLatencyBuckets, lbl),
	}
}

// record adds one executed request. compDists/pageAccesses are the
// counter deltas observed across the request; under concurrency the
// shared counters blend across requests (same caveat as exec.BatchStats):
// overlapping requests each observe the other's work, so attribution —
// and the summed totals — are inflated by the overlap factor. They are
// exact whenever requests do not overlap.
func (l *line) record(dur time.Duration, compDists, pageAccesses int64, failed bool) {
	l.reqs.Inc()
	l.lat.Observe(dur.Seconds())
	if failed {
		l.errs.Inc()
	}
	l.compDists.Add(compDists)
	l.pageAccesses.Add(pageAccesses)
}

// TrackerStats is one stats line of /v1/stats. Count and Errors include
// requests shed at admission; QPS (executed requests over server uptime)
// and the percentiles (lifetime bucket estimates, obs.Histogram.Quantile)
// cover only executed ones, so a flood of instant 429s cannot drag the
// reported latency to zero.
type TrackerStats struct {
	Count        int64   `json:"count"`
	Errors       int64   `json:"errors"`
	CompDists    int64   `json:"compdists"`
	PageAccesses int64   `json:"page_accesses"`
	QPS          float64 `json:"qps"`
	P50Micros    int64   `json:"p50_us"`
	P95Micros    int64   `json:"p95_us"`
	P99Micros    int64   `json:"p99_us"`
}

func (l *line) stats(uptime time.Duration) TrackerStats {
	executed, sheds := l.reqs.Value(), l.sheds.Value()
	micros := func(q float64) int64 {
		return time.Duration(l.lat.Quantile(q) * float64(time.Second)).Microseconds()
	}
	st := TrackerStats{
		Count:        executed + sheds,
		Errors:       l.errs.Value() + sheds,
		CompDists:    l.compDists.Value(),
		PageAccesses: l.pageAccesses.Value(),
		P50Micros:    micros(0.50),
		P95Micros:    micros(0.95),
		P99Micros:    micros(0.99),
	}
	if uptime > 0 {
		st.QPS = float64(executed) / uptime.Seconds()
	}
	return st
}

// Client keys come from a request header, so both their number and their
// size are bounded: a key is clamped to maxClientKey bytes before lookup,
// and keys arriving once maxTracked lines exist share the overflowKey
// line — otherwise a caller rotating the header could grow the registry
// (six series per line) without limit.
const (
	maxTracked   = 256
	maxClientKey = 64
	overflowKey  = "other"
)

// clientLines is the per-client family of lines, registered on first use.
// (The per-endpoint lines are fixed at mux registration and need no lock.)
type clientLines struct {
	reg *obs.Registry
	mu  sync.RWMutex
	m   map[string]*line
}

func (c *clientLines) get(key string) *line {
	c.mu.RLock()
	l := c.m[key]
	c.mu.RUnlock()
	if l != nil {
		return l
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[key] == nil && len(c.m) >= maxTracked {
		key = overflowKey
	}
	if l = c.m[key]; l == nil {
		l = newLine(c.reg, "mx_server_client", obs.Label{Key: "client", Value: key})
		c.m[key] = l
	}
	return l
}

func (c *clientLines) stats(uptime time.Duration) map[string]TrackerStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return lineStats(c.m, uptime)
}

func lineStats(lines map[string]*line, uptime time.Duration) map[string]TrackerStats {
	out := make(map[string]TrackerStats, len(lines))
	for k, l := range lines {
		out[k] = l.stats(uptime)
	}
	return out
}
