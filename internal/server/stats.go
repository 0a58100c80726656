package server

import (
	"sync"
	"time"

	"metricindex/internal/exec"
)

// ringSize bounds the latency samples kept per tracker; percentiles and
// qps are computed over this sliding window of most-recent requests.
const ringSize = 1024

// tracker accumulates one stats line — totals forever, latencies over a
// sliding window. One tracker exists per endpoint and per client.
type tracker struct {
	mu           sync.Mutex
	count        int64
	errors       int64
	compDists    int64
	pageAccesses int64
	when         [ringSize]time.Time
	durs         [ringSize]time.Duration
	n            int // samples stored (<= ringSize)
	next         int // ring cursor
}

// record adds one finished request. compDists/pageAccesses are the
// counter deltas observed across the request; under concurrency the
// shared counters blend across requests (same caveat as exec.BatchStats):
// overlapping requests each observe the other's work, so attribution —
// and the summed totals — are inflated by the overlap factor. They are
// exact whenever requests do not overlap.
func (tr *tracker) record(dur time.Duration, compDists, pageAccesses int64, failed bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.count++
	if failed {
		tr.errors++
	}
	tr.compDists += compDists
	tr.pageAccesses += pageAccesses
	tr.when[tr.next] = time.Now()
	tr.durs[tr.next] = dur
	tr.next = (tr.next + 1) % ringSize
	if tr.n < ringSize {
		tr.n++
	}
}

// reject counts a request shed by admission control without feeding the
// latency window — a flood of instant 429s must not drag the reported
// percentiles to zero while the served requests' latencies still show.
func (tr *tracker) reject() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.count++
	tr.errors++
}

// TrackerStats is one stats line of /v1/stats. Count includes rejected
// requests; QPS and the percentiles cover only executed ones.
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

func (tr *tracker) stats() TrackerStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := TrackerStats{
		Count:        tr.count,
		Errors:       tr.errors,
		CompDists:    tr.compDists,
		PageAccesses: tr.pageAccesses,
	}
	if tr.n == 0 {
		return s
	}
	durs := make([]time.Duration, tr.n)
	oldest := time.Now()
	for i := 0; i < tr.n; i++ {
		pos := (tr.next - 1 - i + 2*ringSize) % ringSize
		durs[i] = tr.durs[pos]
		if tr.when[pos].Before(oldest) {
			oldest = tr.when[pos]
		}
	}
	p50, p95, p99 := exec.LatencyPercentiles(durs)
	s.P50Micros = p50.Microseconds()
	s.P95Micros = p95.Microseconds()
	s.P99Micros = p99.Microseconds()
	if window := time.Since(oldest); window > 0 {
		s.QPS = float64(tr.n) / window.Seconds()
	}
	return s
}

// maxTracked bounds the distinct keys of one statSet. Client keys come
// from a request header, and a tracker holds two ringSize-slot rings
// (~33 KB), so an unbounded set would let a caller rotating the header
// grow the heap without limit; keys arriving once the set is full share
// the overflowKey line.
const (
	maxTracked  = 256
	overflowKey = "other"
)

// statSet is a keyed family of trackers (per endpoint, per client).
type statSet struct {
	mu sync.RWMutex
	m  map[string]*tracker
}

func newStatSet() *statSet { return &statSet{m: make(map[string]*tracker)} }

func (s *statSet) get(key string) *tracker {
	s.mu.RLock()
	tr := s.m[key]
	s.mu.RUnlock()
	if tr != nil {
		return tr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[key] == nil && len(s.m) >= maxTracked {
		key = overflowKey
	}
	if tr = s.m[key]; tr == nil {
		tr = &tracker{}
		s.m[key] = tr
	}
	return tr
}

func (s *statSet) stats() map[string]TrackerStats {
	s.mu.RLock()
	keys := make([]string, 0, len(s.m))
	trs := make([]*tracker, 0, len(s.m))
	for k, tr := range s.m {
		keys = append(keys, k)
		trs = append(trs, tr)
	}
	s.mu.RUnlock()
	out := make(map[string]TrackerStats, len(keys))
	for i, k := range keys {
		out[k] = trs[i].stats()
	}
	return out
}
