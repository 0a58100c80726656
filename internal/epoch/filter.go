package epoch

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// Selectivity estimates, in a read section, the fraction of live
// objects matching p — the planner's input, exposed for the stats
// endpoint and tests.
func (l *Live) Selectivity(p *plan.Predicate) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stats.Selectivity(p)
}

// PlanStats runs fn over the planner's estimator in a read section —
// the consistency hook the churn property test verifies against. fn
// must not mutate the estimator or call back into l.
func (l *Live) PlanStats(fn func(s *plan.Stats)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fn(l.stats)
}

// SetAttrsAt replaces the attribute bag of a live object in one write
// section, keeping the estimator exact, and reports the epoch the
// write committed at. The object itself is untouched; the epoch still
// advances, so cached filtered answers from before the change cannot
// be served after it.
func (l *Live) SetAttrsAt(id int, a core.Attrs) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.ds.Live(id) {
		return l.epoch, fmt.Errorf("epoch: attrs on non-live id %d", id)
	}
	if err := core.ValidateAttrs(a); err != nil {
		return l.epoch, err
	}
	// The checks above are every way the write can fail, so it is
	// journaled first and a failed append leaves the row untouched.
	if err := l.journalAppend(OpSetAttrs, id, nil, a); err != nil {
		return l.epoch, err
	}
	if err := l.setAttrs(id, a); err != nil {
		return l.epoch, err
	}
	l.record(logEntry{setAttrs: true, id: id, attrs: a})
	l.epoch++
	return l.epoch, nil
}

// setAttrs replaces a row's attributes in the dataset and the
// estimator. Dataset.SetAttrs changes nothing when it fails, so the
// estimator re-observes the same row then.
//
//metriclint:locked
func (l *Live) setAttrs(id int, a core.Attrs) error {
	l.stats.RemoveRow(l.ds, id)
	err := l.ds.SetAttrs(id, a)
	l.stats.ObserveRow(l.ds, id)
	return err
}

// removeRow deletes an object's row from the dataset and the estimator.
//
//metriclint:locked
func (l *Live) removeRow(id int) error {
	l.stats.RemoveRow(l.ds, id)
	if err := l.ds.Delete(id); err != nil {
		l.stats.ObserveRow(l.ds, id)
		return err
	}
	return nil
}

// Attrs materialises the attribute bag of a live object in a read
// section (nil when the object has none or the id is dead); see
// core.Dataset.Attrs. Callers must not mutate its tag slices.
func (l *Live) Attrs(id int) core.Attrs {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ds.Attrs(id)
}

// planCount bumps the per-strategy plan counter, if metrics are
// attached. Called inside the read section that ran the plan.
func (l *Live) planCount(st plan.Strategy) {
	m := l.metrics.Load()
	if m == nil {
		return
	}
	switch st {
	case plan.StrategyPre:
		if m.PlanPre != nil {
			m.PlanPre.Inc()
		}
	case plan.StrategyProbe:
		if m.PlanProbe != nil {
			m.PlanProbe.Inc()
		}
	case plan.StrategyPost:
		if m.PlanPost != nil {
			m.PlanPost.Inc()
		}
	}
}
