package epoch

import (
	"time"

	"metricindex/internal/obs"
)

// Obs carries the metric handles Live updates on its write and swap
// paths. All fields must be non-nil. Attach with SetObs; a Live without
// one records nothing. Read-side numbers (current epoch, page accesses,
// object count) are pull-based — register GaugeFuncs over the Live's
// accessors instead.
type Obs struct {
	// Swaps counts committed index swaps (mx_epoch_swaps_total).
	Swaps *obs.Counter
	// SwapSeconds is the duration of each successful swap, snapshot to
	// cutover (mx_epoch_swap_seconds).
	SwapSeconds *obs.Histogram
	// WriteWait is how long each write section waited to acquire the
	// write lock (mx_epoch_write_wait_seconds) — the back-pressure
	// readers put on writers.
	WriteWait *obs.Histogram
	// PlanPre/PlanProbe/PlanPost count executed filtered-query plans by
	// strategy (mx_plan_strategy_total{strategy=...}). Cache hits run no
	// plan and count on none of them. Unlike the write-path fields these
	// may be nil: a Live serving no filtered traffic needs none.
	PlanPre   *obs.Counter
	PlanProbe *obs.Counter
	PlanPost  *obs.Counter
}

// SetObs attaches metric handles. Safe to call at any time.
func (l *Live) SetObs(m *Obs) {
	l.metrics.Store(m)
}

// writeWait observes one write-lock acquisition wait. Called after
// Lock() returns with the wait measured by the caller; the metrics
// pointer is outside the lock discipline.
func (l *Live) writeWait(waited time.Duration) {
	if m := l.metrics.Load(); m != nil {
		m.WriteWait.Observe(waited.Seconds())
	}
}
