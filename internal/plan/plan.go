package plan

import (
	"math"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/obs"
)

// Strategy is the execution shape of one filtered query. All three
// produce the same exact answer; they differ only in where the
// predicate is applied relative to the index probe, and therefore in
// compdists and page accesses.
type Strategy uint8

const (
	// StrategyPre scans the matching id-set linearly, skipping the
	// index entirely: when few objects match, computing their distances
	// directly beats any probe.
	StrategyPre Strategy = iota + 1
	// StrategyProbe pushes the predicate into the index's candidate-
	// verification step (core.AcceptSearcher): non-matching candidates
	// are rejected before their distance is computed, keeping the
	// index's geometric pruning and saving the compdists of rejected
	// candidates.
	StrategyProbe
	// StrategyPost filters the answers of an ordinary index probe; kNN
	// probes inflate k by the estimated selectivity and re-probe with a
	// doubled k until enough matches surface (terminally k = n, which
	// is exact by exhaustion).
	StrategyPost
)

// String returns the short name used in metrics labels and reports.
func (s Strategy) String() string {
	switch s {
	case StrategyPre:
		return "pre"
	case StrategyProbe:
		return "probe"
	case StrategyPost:
		return "post"
	}
	return "unknown"
}

// Strategies lists all strategies, for tests and metric registration.
var Strategies = []Strategy{StrategyPre, StrategyProbe, StrategyPost}

// Pushdown is how far an index takes a filtered query's accept test
// into its own search, which decides what a probe costs against the
// pre-filter's sweep of the attribute columns.
type Pushdown uint8

const (
	// PushdownNone: the index cannot test the predicate while it
	// searches, so a forced probe is a post-filter.
	PushdownNone Pushdown = iota
	// PushdownScan: the accept test runs inside a scan that reads every
	// row (EPT/EPT*'s per-row table, which has no zone map). The probe
	// computes no distance for a rejected candidate, but it costs at
	// least one full pass, as the attribute sweep does.
	PushdownScan
	// PushdownPruned: the accept test runs only on the candidates the
	// index's pruning leaves (LAESA's zone-skipped blocks), so a probe
	// costs less than sweeping the attribute columns.
	PushdownPruned
)

// Planner decision thresholds. A pre-filter sweeps the predicate's
// columns over every live row, then computes one distance per match.
const (
	// preMatchesPerNeighbor: on a PushdownPruned index a kNN plans pre
	// only while the expected matches are at most this many per
	// requested neighbour; past that, the probe's search for k accepted
	// neighbours costs less than verifying every match. Measured on
	// LAESA by BenchmarkFilteredStrategies (table in docs/HYBRID.md).
	preMatchesPerNeighbor = 20
	// preMaxMatches and preMaxSel: on the other indexes a probe costs a
	// full pass at least (or is a post-filter, whose re-probes cost most
	// when matches are rare), so pre wins at a few matches in absolute
	// terms (at most preMaxMatches) or in relative terms (selectivity at
	// most preMaxSel).
	preMaxMatches = 128
	preMaxSel     = 0.05
	// postMinSel: selectivity at or above which post is planned (most
	// answers survive the filter anyway), and below which an index that
	// pushes down plans probe.
	postMinSel = 0.5
)

// pushdownReporter is the optional method of a core.AcceptSearcher that
// knows its Pushdown. An AcceptSearcher without it is PushdownScan. A
// front over sub-indexes (shard.Sharded) reports the least of its
// shards: it takes an accept test whatever they are, but post-filters
// the answers of those that cannot push down.
type pushdownReporter interface {
	Pushdown() Pushdown
}

// PushdownOf reports how far idx pushes an accept test down.
func PushdownOf(idx core.Index) Pushdown {
	if _, ok := idx.(core.AcceptSearcher); !ok {
		return PushdownNone
	}
	if pr, ok := idx.(pushdownReporter); ok {
		return pr.Pushdown()
	}
	return PushdownScan
}

// Capable reports whether the index pushes the accept test into its own
// search at all (predicate pushdown, probe-filtering).
func Capable(idx core.Index) bool { return PushdownOf(idx) != PushdownNone }

// Choose picks the strategy for a filtered query of the given kind and
// answer size k (kNN only) from the estimated selectivity sel, the live
// object count n, and the index's pushdown (PushdownOf). The choice
// never affects the answer, only its cost.
//
// On a PushdownPruned index a range query never plans pre: its probe
// prices only the candidates the pruning leaves, which costs less than
// the attribute sweep at any selectivity. A kNN there plans pre while
// the expected matches are at most preMatchesPerNeighbor·k. Elsewhere
// the rule is selectivity alone: pre for rare predicates, then probe
// where the index pushes down, post where it cannot or when most rows
// match.
func Choose(kind Kind, k int, sel float64, n int, pd Pushdown) Strategy {
	matches := sel * float64(n)
	switch {
	case pd == PushdownPruned && kind == KindKNN && matches <= preMatchesPerNeighbor*float64(k):
		return StrategyPre
	case pd != PushdownPruned && (sel <= preMaxSel || matches <= preMaxMatches):
		return StrategyPre
	case sel >= postMinSel || pd == PushdownNone:
		return StrategyPost
	}
	return StrategyProbe
}

// probeRange runs one index probe for ExecRange: through the traced
// entry point when the query is traced and the index has one, else by
// pushdown when accept is set (the caller checked Capable), else the
// plain search.
func probeRange(idx core.Index, q core.Object, r float64, accept core.Filter, tr *obs.Trace) ([]int, error) {
	if ts, ok := idx.(TracedSearcher); ok && tr != nil {
		return ts.RangeSearchTraced(q, r, accept, tr)
	}
	if accept != nil {
		return idx.(core.AcceptSearcher).RangeSearchAccept(q, r, accept)
	}
	return idx.RangeSearch(q, r)
}

// probeKNN is the kNN counterpart of probeRange.
func probeKNN(idx core.Index, q core.Object, k int, accept core.Filter, tr *obs.Trace) ([]core.Neighbor, error) {
	if ts, ok := idx.(TracedSearcher); ok && tr != nil {
		return ts.KNNSearchTraced(q, k, accept, tr)
	}
	if accept != nil {
		return idx.(core.AcceptSearcher).KNNSearchAccept(q, k, accept)
	}
	return idx.KNNSearch(q, k)
}

// ExecRange answers MRQ(q, r) restricted to objects satisfying p,
// using the given strategy. StrategyProbe silently degrades to
// StrategyPost when the index cannot push predicates down (Capable).
// The result
// is in ascending id order, exactly the predicate-filtered subset of
// the unfiltered range answer. A nil predicate (strategy zero) is the
// unfiltered search. A non-nil tr reaches indexes that record spans of
// their own (TracedSearcher).
func ExecRange(ds *core.Dataset, idx core.Index, p *Predicate, q core.Object, r float64, st Strategy, tr *obs.Trace) ([]int, error) {
	if p == nil {
		return probeRange(idx, q, r, nil, tr)
	}
	m := p.Compile(ds)
	defer m.Release()
	switch {
	case st == StrategyPre:
		var res []int
		objs := ds.Objects()
		for id := range m.Rows() {
			if o := objs[id]; o != nil && ds.Space().Distance(q, o) <= r {
				res = append(res, id)
			}
		}
		return res, nil
	case st == StrategyProbe && Capable(idx):
		ids, err := probeRange(idx, q, r, m, tr)
		if err != nil {
			return nil, err
		}
		sort.Ints(ids)
		return ids, nil
	}
	ids, err := probeRange(idx, q, r, nil, tr)
	if err != nil {
		return nil, err
	}
	res := ids[:0]
	for _, id := range ids {
		if m.Match(id) {
			res = append(res, id)
		}
	}
	return res, nil
}

// ExecKNN answers MkNNQ(q, k) over objects satisfying p, using the
// given strategy (see ExecRange for nil p and tr). selHint seeds the
// post-filter's k inflation (pass the estimated selectivity; any value
// outside (0, 1] falls back to 0.5): the probe asks for k/selHint
// neighbors first and core.PostFilterKNN doubles from there. Fewer
// than k neighbors are returned only when fewer than k live objects
// match the predicate.
func ExecKNN(ds *core.Dataset, idx core.Index, p *Predicate, q core.Object, k int, st Strategy, selHint float64, tr *obs.Trace) ([]core.Neighbor, error) {
	if p == nil {
		return probeKNN(idx, q, k, nil, tr)
	}
	m := p.Compile(ds)
	defer m.Release()
	switch {
	case st == StrategyPre:
		h := core.NewKNNHeap(k)
		objs := ds.Objects()
		for id := range m.Rows() {
			if o := objs[id]; o != nil {
				h.Push(id, ds.Space().Distance(q, o))
			}
		}
		return h.Result(), nil
	case st == StrategyProbe && Capable(idx):
		return probeKNN(idx, q, k, m, tr)
	}
	if !(selHint > 0) || selHint > 1 {
		selHint = 0.5
	}
	probe := func(kk int) ([]core.Neighbor, error) { return probeKNN(idx, q, kk, nil, tr) }
	return core.PostFilterKNN(probe, ds.Count(), k, int(math.Ceil(float64(k)/selHint)), m.Match)
}
