// Package exec is the concurrent batch query engine: it runs MRQ and
// MkNNQ workloads over any core.Reader from a pool of worker goroutines,
// preserving the input order of the answers and aggregating the paper's
// cost metrics (compdists, page accesses, wall time) per batch.
//
// The paper's §6.2 observes that pivot-based structures parallelize
// naturally because objects are independent of each other; the same holds
// for queries, which never mutate the index. The engine exploits that:
// every index in the repository answers read-only queries against
// immutable structure state, all page traffic goes through the
// mutex-guarded store.Pager/store.RAF, and all distance computations go
// through the atomic counter of core.Space, so a single index can serve
// many queries concurrently with exact, deterministic results.
//
// Concurrent queries may NOT be interleaved with Insert/Delete on a raw
// index — updates are not synchronized with searches, and batch
// boundaries are the unit of consistency. internal/epoch lifts that
// restriction: wrap the index in an epoch.Live and batches, updates and
// whole-index swaps interleave safely.
//
// The pivot tables keep per-query working memory (query-pivot distances,
// lower-bound columns, verification chunks, the kNN heap) in a
// core.ScratchPool rather than allocating per query. The pool hands each
// concurrent query its own buffers, so the engine's workers share one
// index with zero steady-state allocations on the batched hot paths —
// the pool is part of the read-only query contract above, not an
// exception to it.
package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
)

// Metrics carries the engine's obs handles. All fields must be non-nil;
// an engine built without Metrics records nothing.
type Metrics struct {
	// Batches counts batches dispatched (mx_exec_batches_total).
	Batches *obs.Counter
	// BatchQueries is the distribution of batch sizes
	// (mx_exec_batch_queries).
	BatchQueries *obs.Histogram
	// PredispatchHits counts queries answered from the answer cache
	// during the pre-dispatch sweep (mx_exec_predispatch_hits_total).
	PredispatchHits *obs.Counter
	// QueueWait is how long each dispatched query waited from batch
	// start to the moment a worker picked it up
	// (mx_exec_queue_wait_seconds).
	QueueWait *obs.Histogram
}

// Searcher is the optional interface of indexes that answer a whole
// plan.Query themselves (epoch.Live): filter planning and the answer
// cache live behind Search, and Peek serves a memoized answer without
// computing. The engine peeks per query before dispatching a batch:
// hits are answered inline and never occupy a worker slot, so the
// pool's concurrency is spent entirely on real misses. Peek must be
// cheap, must not compute distances, and must return an answer
// identical to a fresh search at the moment of the call.
type Searcher interface {
	Search(q plan.Query) (plan.Answer, error)
	Peek(q plan.Query) (plan.Answer, bool)
}

// Options configures an Engine.
type Options struct {
	// Workers is the goroutine pool size per batch; <= 0 uses GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives per-batch observations.
	Metrics *Metrics
}

// Engine runs batched queries over indexes. An Engine is stateless between
// batches, safe for concurrent use by multiple goroutines, and may be
// shared across indexes (it holds no reference to any index).
type Engine struct {
	workers int
	space   *core.Space
	metrics *Metrics
}

// New creates an engine over the instrumented space shared by the indexes
// it will serve. space may be nil, in which case per-batch CompDists stats
// are reported as zero. Workers <= 0 defaults to GOMAXPROCS.
func New(space *core.Space, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w, space: space, metrics: opts.Metrics}
}

// Workers returns the pool size used per batch.
func (e *Engine) Workers() int { return e.workers }

// BatchStats aggregates the paper's cost metrics over one batch.
//
// CompDists and PageAccesses are measured as deltas of the shared
// counters across the batch, so they attribute every distance computation
// on the Space (and every page access on the index) performed while the
// batch ran. Run one batch at a time per Space/index when exact
// attribution matters; concurrent batches still compute correct results
// but blend their counter deltas.
type BatchStats struct {
	// Queries is the number of queries answered.
	Queries int
	// CompDists is the total distance computations during the batch.
	CompDists int64
	// PageAccesses is the total page reads+writes during the batch.
	PageAccesses int64
	// Wall is the elapsed wall-clock time of the whole batch.
	Wall time.Duration
	// P50, P95 and P99 are per-query latency percentiles (nearest-rank)
	// over the queries that actually computed — the SLO-grade numbers a
	// serving layer reports. Unlike Wall they measure individual
	// queries, so they stay meaningful however many workers overlap.
	// Cache hits are excluded: a hit resolves in sub-microsecond time,
	// and folding those samples in deflates every percentile below p(hit
	// rate) to ~0, which misreports the latency of the work the index is
	// really doing. Hit latencies are reported separately below.
	P50, P95, P99 time.Duration
	// HitP50, HitP95 and HitP99 are the latency percentiles of the
	// cache-hit queries alone (zeros when the batch had none).
	HitP50, HitP95, HitP99 time.Duration
	// CacheHits is the number of queries answered from the index's
	// answer cache without computing — peeked before dispatch, or
	// resolved inside the dispatched search (Answer.Cached). 0 when the
	// index has no cache. Cached answers cost no compdists and no page
	// accesses, which is why a hot batch's per-query averages drop.
	CacheHits int
}

// PerQueryCompDists returns the average compdists per query.
func (s BatchStats) PerQueryCompDists() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.CompDists) / float64(s.Queries)
}

// PerQueryPageAccesses returns the average page accesses per query.
func (s BatchStats) PerQueryPageAccesses() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.PageAccesses) / float64(s.Queries)
}

// Throughput returns queries per second over the batch wall time.
func (s BatchStats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Wall.Seconds()
}

// Result is the answer of one batch. IDs (a range batch) or Neighbors
// (a kNN batch) is positionally aligned with the queries; the other is
// nil.
type Result struct {
	// IDs[i] is the RangeSearch answer for the i-th query, in the same
	// ascending-id order the sequential call returns.
	IDs [][]int
	// Neighbors[i] is the KNNSearch answer for the i-th query, sorted by
	// ascending distance (ties by id) exactly as the sequential call
	// returns.
	Neighbors [][]core.Neighbor
	// Plans[i] is the strategy that answered the i-th query of a
	// filtered batch (the zero value when it came from the answer
	// cache). Nil for unfiltered batches.
	Plans []plan.Strategy
	// Stats aggregates the batch cost.
	Stats BatchStats
}

// RangeResult and KNNResult name Result by the batch kind that filled it.
type (
	RangeResult = Result
	KNNResult   = Result
)

// BatchRangeSearch answers MRQ(q, r) for every query concurrently; see
// Batch.
func (e *Engine) BatchRangeSearch(ctx context.Context, idx core.Reader, queries []core.Object, r float64) (*RangeResult, error) {
	return e.Batch(ctx, idx, queries, plan.Query{Kind: plan.KindRange, Radius: r})
}

// BatchKNNSearch answers MkNNQ(q, k) for every query concurrently; see
// Batch.
func (e *Engine) BatchKNNSearch(ctx context.Context, idx core.Reader, queries []core.Object, k int) (*KNNResult, error) {
	return e.Batch(ctx, idx, queries, plan.Query{Kind: plan.KindKNN, K: k})
}

// Batch answers the query q — its Kind, parameter and optional Filter;
// Object and Trace are ignored — for every object in queries
// concurrently. Results are positionally aligned with queries
// (deterministic regardless of worker interleaving). The first query
// error or context cancellation stops the batch and is returned;
// partial results are discarded. A filtered batch needs an index that
// implements Searcher.
//
// On a Searcher the answer cache is peeked first: hits are served
// inline during the sweep, and only the misses are dispatched through
// Scatter — a hot batch never waits on the worker pool at all. A
// dispatched query the cache still resolved (filled or joined since the
// peek) counts as a hit too. Latency percentiles are reported
// separately for hits and misses (see BatchStats).
func (e *Engine) Batch(ctx context.Context, idx core.Reader, queries []core.Object, q plan.Query) (*Result, error) {
	sr, _ := idx.(Searcher)
	if q.Filter != nil && sr == nil {
		return nil, fmt.Errorf("exec: index %s does not support filtered search", idx.Name())
	}
	q.Trace = nil
	var compBase int64
	if e.space != nil {
		compBase = e.space.CompDists()
	}
	paBase := idx.PageAccesses()
	n := len(queries)
	answers := make([]plan.Answer, n)
	durs := make([]time.Duration, n)
	start := time.Now()
	todo := make([]int, 0, n)
	for i := range queries {
		if sr != nil {
			q.Object = queries[i]
			qStart := time.Now()
			if a, ok := sr.Peek(q); ok {
				answers[i], durs[i] = a, time.Since(qStart)
				continue
			}
		}
		todo = append(todo, i)
	}
	m := e.metrics
	job := func(j int) error {
		i, q := todo[j], q
		q.Object = queries[i]
		qStart := time.Now()
		if m != nil {
			// Queue wait: batch arrival to worker pickup for this query.
			m.QueueWait.Observe(qStart.Sub(start).Seconds())
		}
		var err error
		switch {
		case sr != nil:
			answers[i], err = sr.Search(q)
		case q.Kind == plan.KindRange:
			answers[i].IDs, err = idx.RangeSearch(q.Object, q.Radius)
		default:
			answers[i].Neighbors, err = idx.KNNSearch(q.Object, q.K)
		}
		durs[i] = time.Since(qStart)
		if err != nil {
			return fmt.Errorf("exec: query %d: %w", i, err)
		}
		return nil
	}
	if err := Scatter(ctx, e.workers, len(todo), job); err != nil {
		return nil, err
	}
	if m != nil {
		m.Batches.Inc()
		m.BatchQueries.Observe(float64(n))
		m.PredispatchHits.Add(int64(n - len(todo)))
	}
	res := &Result{Stats: BatchStats{Queries: n, Wall: time.Since(start)}}
	if q.Kind == plan.KindRange {
		res.IDs = make([][]int, n)
	} else {
		res.Neighbors = make([][]core.Neighbor, n)
	}
	if q.Filter != nil {
		res.Plans = make([]plan.Strategy, n)
	}
	var hitDurs, missDurs []time.Duration
	for i, a := range answers {
		if res.IDs != nil {
			res.IDs[i] = a.IDs
		} else {
			res.Neighbors[i] = a.Neighbors
		}
		if res.Plans != nil {
			res.Plans[i] = a.Strategy
		}
		if a.Cached {
			hitDurs = append(hitDurs, durs[i])
		} else {
			missDurs = append(missDurs, durs[i])
		}
	}
	st := &res.Stats
	st.CacheHits = len(hitDurs)
	st.P50, st.P95, st.P99 = LatencyPercentiles(missDurs)
	st.HitP50, st.HitP95, st.HitP99 = LatencyPercentiles(hitDurs)
	if e.space != nil {
		st.CompDists = e.space.CompDists() - compBase
	}
	// A hot-swappable index (epoch.Live) may replace its structure — and
	// its counter — mid-batch; clamp rather than report a negative delta
	// across the cutover.
	st.PageAccesses = max(idx.PageAccesses()-paBase, 0)
	return res, nil
}

// Scatter is the engine's dispatch primitive, exported for other
// scatter-gather layers (the sharded index fans one query out across its
// shards with it). It runs n jobs on a temporary pool of up to `workers`
// goroutines (<= 0 means GOMAXPROCS). Jobs are claimed dynamically off an
// atomic cursor, not in static chunks, so one slow job does not straggle a
// whole chunk; each job writes only its own result slot, which keeps
// callers' output deterministic without post-hoc sorting. The first job
// error — or ctx cancellation — stops the dispatch and is returned.
func Scatter(ctx context.Context, workers, n int, job func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor   atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		e := err
		if firstErr.CompareAndSwap(nil, &e) {
			cancel()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if errp := firstErr.Load(); errp != nil {
		return *errp
	}
	return ctx.Err()
}

// LatencyPercentiles computes the nearest-rank p50/p95/p99 of a sample of
// latencies. The input is not modified (a sorted copy is taken); an empty
// sample yields zeros. Shared by the batch engine and the bench
// harness's sequential loop so both report the same definition of a
// percentile — the one exact-sample definition; the server's lifetime
// request stats are bucket estimates (obs.Histogram.Quantile).
func LatencyPercentiles(durs []time.Duration) (p50, p95, p99 time.Duration) {
	if len(durs) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}
