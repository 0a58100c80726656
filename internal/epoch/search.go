package epoch

import (
	"time"

	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// Search answers q. It is the only query path of Live: the one place
// that probes the answer cache, enters the read section, plans a
// filter and records trace spans; every other search method is an
// adapter over it.
//
// With a cache attached (SetCache) the answer may be served memoized
// (Answer.Cached) — still exactly the (answer, epoch) pair some read
// section produced at the reported epoch. Filtered answers share the
// cache with unfiltered ones: the predicate's canonical form is part of
// the cache key, so the same (object, parameter) under different
// filters — or none — can never collide.
//
// A traced query (q.Trace != nil) records cache_probe (when a cache is
// attached) and the spans of section. Traced misses bypass the cache's
// singleflight (collapsing onto another caller's fill would time that
// caller's work, not this query's) but still store their answer, so
// tracing a cold query warms the cache exactly like an untraced one.
func (l *Live) Search(q plan.Query) (plan.Answer, error) {
	c := l.cache.Load()
	switch {
	case c == nil:
		return l.section(q)
	case q.Trace == nil:
		return c.Do(q, l.Epoch(), func() (plan.Answer, error) { return l.section(q) })
	}
	probeStart := time.Now()
	ans, ok := c.Get(q, l.Epoch())
	q.Trace.Add("cache_probe", probeStart, time.Since(probeStart), 0, 0)
	if ok {
		return ans, nil
	}
	ans, err := l.section(q)
	if err == nil {
		c.Put(q, ans)
	}
	return ans, err
}

// section is the one read section behind Search — and the cache's fill
// on a miss. Answer and epoch come from the same section, so the pair
// is a valid cache entry: the answer is exactly the dataset version the
// epoch names (an Epoch() call after the search could already include
// later writes the answer does not). A filter is planned here too, so
// the selectivity estimate, the strategy choice and the answer all
// observe one dataset version.
//
// A traced query records read_wait (time to acquire the read lock),
// plan (selectivity estimate and strategy choice, filtered queries
// only) and read_section with the compdists and page accesses the
// search spent. Cost deltas are read from the structures the section
// already guards (never via the re-locking accessors, which could
// deadlock behind a queued writer). Compdists flow through the Space
// shared by every concurrent query, so under concurrency a span's
// delta can include neighbors' work — exact when one traced query runs
// alone, an upper bound otherwise.
func (l *Live) section(q plan.Query) (plan.Answer, error) {
	tr := q.Trace
	var waitStart time.Time
	if tr != nil {
		waitStart = time.Now()
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if tr != nil {
		tr.Add("read_wait", waitStart, time.Since(waitStart), 0, 0)
	}
	ans := plan.Answer{Epoch: l.epoch}
	var sel float64
	if q.Filter != nil {
		planStart := time.Now()
		sel = l.stats.Selectivity(q.Filter)
		ans.Strategy = plan.Choose(q.Kind, q.K, sel, l.ds.Count(), plan.PushdownOf(l.idx))
		tr.Add("plan", planStart, time.Since(planStart), 0, 0)
		l.planCount(ans.Strategy)
	}
	var compBase, paBase int64
	var secStart time.Time
	if tr != nil {
		compBase = l.ds.Space().CompDists()
		paBase = l.idx.PageAccesses()
		secStart = time.Now()
	}
	var err error
	if q.Kind == plan.KindRange {
		ans.IDs, err = plan.ExecRange(l.ds, l.idx, q.Filter, q.Object, q.Radius, ans.Strategy, tr)
	} else {
		ans.Neighbors, err = plan.ExecKNN(l.ds, l.idx, q.Filter, q.Object, q.K, ans.Strategy, sel, tr)
	}
	if tr != nil {
		pa := max(l.idx.PageAccesses()-paBase, 0)
		tr.Add("read_section", secStart, time.Since(secStart), l.ds.Space().CompDists()-compBase, pa)
	}
	return ans, err
}

// Peek returns the cached answer to q valid at the current epoch
// without computing anything on a miss — the batch engine's
// pre-dispatch probe (exec.Searcher).
func (l *Live) Peek(q plan.Query) (plan.Answer, bool) {
	c := l.cache.Load()
	if c == nil {
		return plan.Answer{}, false
	}
	return c.Get(q, l.Epoch())
}

// The methods below are the retained adapters over Search: the
// core.Index pair, the epoch-reporting pair, and the filtered pair.

// RangeSearch answers MRQ(q, r) in a read section.
func (l *Live) RangeSearch(q core.Object, r float64) ([]int, error) {
	a, err := l.Search(plan.Query{Kind: plan.KindRange, Object: q, Radius: r})
	return a.IDs, err
}

// KNNSearch answers MkNNQ(q, k) in a read section.
func (l *Live) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	a, err := l.Search(plan.Query{Kind: plan.KindKNN, Object: q, K: k})
	return a.Neighbors, err
}

// RangeSearchAt is RangeSearch reporting also the epoch the search
// observed (see section).
func (l *Live) RangeSearchAt(q core.Object, r float64) ([]int, uint64, error) {
	a, err := l.Search(plan.Query{Kind: plan.KindRange, Object: q, Radius: r})
	return a.IDs, a.Epoch, err
}

// KNNSearchAt is KNNSearch reporting also the epoch the search observed.
func (l *Live) KNNSearchAt(q core.Object, k int) ([]core.Neighbor, uint64, error) {
	a, err := l.Search(plan.Query{Kind: plan.KindKNN, Object: q, K: k})
	return a.Neighbors, a.Epoch, err
}

// RangeSearchFiltered answers MRQ(q, r) restricted to objects whose
// attribute bag satisfies p (nil is the unfiltered search). The
// returned Strategy is the plan that produced the answer; the zero
// value means it was served from the cache (no plan ran at all).
func (l *Live) RangeSearchFiltered(q core.Object, r float64, p *plan.Predicate) ([]int, uint64, plan.Strategy, error) {
	a, err := l.Search(plan.Query{Kind: plan.KindRange, Object: q, Radius: r, Filter: p})
	return a.IDs, a.Epoch, a.Strategy, err
}

// KNNSearchFiltered answers MkNNQ(q, k) over objects whose attribute
// bag satisfies p (see RangeSearchFiltered). Fewer than k neighbors are
// returned only when fewer than k live objects match.
func (l *Live) KNNSearchFiltered(q core.Object, k int, p *plan.Predicate) ([]core.Neighbor, uint64, plan.Strategy, error) {
	a, err := l.Search(plan.Query{Kind: plan.KindKNN, Object: q, K: k, Filter: p})
	return a.Neighbors, a.Epoch, a.Strategy, err
}
