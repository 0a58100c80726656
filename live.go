package metricindex

import (
	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/plan"
)

// Live is an index whose writes are epoch-synchronized with its
// searches, lifting the library's historical "do not interleave updates
// with a running batch" restriction for the structure it wraps, and
// whose whole structure can be hot-swapped (rebuilt in the background,
// cut over atomically) with Swap. Live is a Reader, so it composes with
// the batch engine and anything else that only searches.
//
// Live owns its dataset: its only writes are AddAttrsAt, RemoveAt and
// SetAttrsAt, each changing dataset and index inside the same write
// section. Every committed write advances Epoch, a monotone version
// counter searches can be correlated against.
type Live = epoch.Live

// Query and Answer are the one request and result of a Live index:
// Live.Search(Query) is the single query path — it probes the answer
// cache, enters the read section, plans the Filter and records the
// Trace — and RangeSearch/KNNSearch, RangeSearchAt/KNNSearchAt and
// RangeSearchFiltered/KNNSearchFiltered are adapters over it. Set Kind
// to QueryRange (with Radius) or QueryKNN (with K).
type (
	Query  = plan.Query
	Answer = plan.Answer
)

// The two query kinds of the paper: MRQ(q, r) and MkNNQ(q, k).
const (
	QueryRange = plan.KindRange
	QueryKNN   = plan.KindKNN
)

// IndexBuilder constructs an index over a dataset — the rebuild callback
// of Live.Swap and ServerOptions.Builder. The shard builders in this
// package have the same shape, so one function can serve both roles.
type IndexBuilder = epoch.Builder

// ErrSwapInProgress is returned by Live.Swap while a rebuild is already
// running (one swap at a time).
var ErrSwapInProgress = epoch.ErrSwapInProgress

// CacheOptions configures the epoch-keyed answer cache of a Live index:
// a byte-budgeted, sharded LRU that memoizes whole query answers with
// singleflight collapse of concurrent identical misses. Entries are
// keyed by (query, kind, radius|k, filter, epoch), so every committed
// write or swap invalidates the working set for free —
// a search that starts after a write commits can never be served a
// pre-write answer. The zero value uses the defaults (32 MB, 16
// shards).
type CacheOptions = cache.Options

// CacheStats is a snapshot of a Live index's answer-cache counters
// (Live.CacheStats); its HitRate method is the fraction of lookups that
// avoided computing.
type CacheStats = cache.Stats

// NewLive wraps an index and the dataset it was built over into an
// update-synchronized, hot-swappable front:
//
//	idx, _ := metricindex.NewLAESA(ds, pivots)
//	live := metricindex.NewLive(ds, idx)
//	go func() { _, _ = live.KNNSearch(q, 10) }()             // searches...
//	_, _, _ = live.AddAttrsAt(metricindex.Vector{1, 2}, nil) // ...interleave with updates
//	_ = live.Swap(func(ds *metricindex.Dataset) (metricindex.Index, error) {
//		pv, err := metricindex.SelectPivots(ds, 5, 1)  // graceful rebuild:
//		if err != nil {                                // queries keep flowing,
//			return nil, err                            // zero wrong answers
//		}
//		return metricindex.NewLAESA(ds, pv)
//	})
//
// Passing a CacheOptions attaches the epoch-keyed answer cache, so hot
// queries are served memoized — byte-identical to a fresh search, zero
// compdists, zero page accesses — until the next committed write bumps
// the epoch:
//
//	live := metricindex.NewLive(ds, idx, metricindex.CacheOptions{MaxBytes: 64 << 20})
//	hits, _ := live.CacheStats()
func NewLive(ds *Dataset, idx Index, cacheOpts ...CacheOptions) *Live {
	l := epoch.NewLive(ds, idx)
	if len(cacheOpts) > 0 {
		l.SetCache(cache.New(cacheOpts[0]))
	}
	return l
}

// ensure the alias stays a Reader.
var _ core.Reader = (*Live)(nil)
