package plan

import (
	"metricindex/internal/core"
	"metricindex/internal/obs"
)

// Kind names one of the paper's two queries.
type Kind uint8

const (
	// KindRange is MRQ(q, r): every object within distance Radius.
	KindRange Kind = 1
	// KindKNN is MkNNQ(q, k): the K nearest objects.
	KindKNN Kind = 2
)

// Query is the one request value of the serving stack. Every wrapper
// layer — the answer cache, epoch.Live, the batch engine, the HTTP
// handlers — takes a Query and returns an Answer; the options that used
// to fork the API (report the epoch, trace, filter) are fields here.
type Query struct {
	Kind   Kind
	Object core.Object
	// Radius is the MRQ radius (KindRange); K the MkNNQ answer size
	// (KindKNN). The field of the other kind is ignored.
	Radius float64
	K      int
	// Filter, when non-nil, restricts the answer to objects whose
	// attribute bag satisfies the predicate.
	Filter *Predicate
	// Trace, when non-nil, receives the query's span timeline.
	Trace *obs.Trace
}

// Answer is the one result value: IDs for KindRange (ascending),
// Neighbors for KindKNN (ascending distance, ties by id).
type Answer struct {
	IDs       []int
	Neighbors []core.Neighbor
	// Epoch is the dataset version the answer is exact for, read in the
	// same read section that produced it.
	Epoch uint64
	// Strategy is the plan that executed a filtered query; zero for an
	// unfiltered query and for an answer served from the cache (no plan
	// ran for this caller).
	Strategy Strategy
	// Cached reports that the answer was served memoized — a resident
	// cache entry or another caller's in-flight fill — costing this
	// caller no compdists and no page accesses.
	Cached bool
}

// TracedSearcher is the optional capability of an index that records
// spans below the read section (shard.Sharded: one per shard probe plus
// the merge). The accept test rides in the same call, so a filtered
// traced query keeps its spans; nil accept is the unfiltered search.
type TracedSearcher interface {
	RangeSearchTraced(q core.Object, r float64, accept core.Filter, tr *obs.Trace) ([]int, error)
	KNNSearchTraced(q core.Object, k int, accept core.Filter, tr *obs.Trace) ([]core.Neighbor, error)
}
