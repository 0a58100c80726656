package epoch

import (
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
