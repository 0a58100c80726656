// Package metricindex is a library of pivot-based metric index structures,
// reproducing "Pivot-based Metric Indexing: Experiments and Analyses"
// (Chen, Gao, Zheng, Jensen, Yang, Yang — PVLDB 10(10), 2017).
//
// It provides every index the paper studies — the pivot tables AESA,
// LAESA, EPT, EPT* and CPT; the pivot trees BKT, FQT (plus FQA) and
// VPT/MVPT; and the disk-based PM-tree, Omni-family, M-index, M-index*
// and SPB-tree — behind one Index interface, together with the pivot
// selection algorithms (HF, HFI, PSA), metric-space primitives, dataset
// generators, and the instrumentation (distance-computation and
// page-access counters) the paper's experiments measure.
//
// # Quick start
//
//	objs := []metricindex.Object{
//		metricindex.Vector{0, 0}, metricindex.Vector{3, 4}, metricindex.Vector{6, 8},
//	}
//	ds := metricindex.NewDataset(metricindex.NewSpace(metricindex.L2{}), objs)
//	pivots, _ := metricindex.SelectPivots(ds, 2, 1)
//	idx, _ := metricindex.NewLAESA(ds, pivots)
//	ids, _ := idx.RangeSearch(metricindex.Vector{1, 1}, 5)   // MRQ
//	nns, _ := idx.KNNSearch(metricindex.Vector{1, 1}, 2)     // MkNNQ
//
// # Batch queries
//
// Queries are read-only on every index, so whole workloads can be
// answered concurrently through the batch engine. Results are
// positionally aligned with the input queries and identical to the
// sequential calls; Stats aggregates compdists, page accesses, and wall
// time over the batch:
//
//	eng := metricindex.NewEngine(ds.Space(), metricindex.EngineOptions{}) // GOMAXPROCS workers
//	res, _ := eng.BatchKNNSearch(ctx, idx, queries, 10)
//	for i := range queries {
//		_ = res.Neighbors[i] // answer of queries[i]
//	}
//	qps := res.Stats.Throughput()
//
// Construction parallelizes for every index family: NewLAESAParallel,
// NewCPTParallel, NewPMTreeParallel, and the Workers fields of
// EPTOptions, OmniOptions and TreeOptions fan the construction work
// across cores — chunked distance rows for the tables, node-level
// builds bounded by a shared token pool for the trees (BKT/FQT/MVPT),
// and a partitioned bulk load for the disk M-tree/PM-tree. The tables
// and trees are identical to their sequential builds; the bulk load is
// its own algorithm whose page image is byte-identical for every
// worker count (it clusters objects differently than the sequential
// one-by-one insertion of NewPMTree/NewCPT — answers match, per-query
// page accesses may shift). Each of those identity claims is
// enforced by internal/testutil's metamorphic equivalence harness
// (parallel answers == sequential answers, both == a linear scan,
// invariant under insert-then-delete round trips) plus deep structure
// and page-image compares under the race detector. A raw index does not
// synchronize updates with searches (finish the batch, then update);
// wrap it in NewLive to lift that restriction — see below.
//
// # Sharding
//
// One index bounds a single query to one structure; NewSharded removes
// that bound by partitioning the dataset across N sub-indexes and
// scatter-gathering every query over them concurrently. Any constructor
// serves as the per-shard builder, and the shard datasets keep the
// parent's object identifiers, so answers are exactly those of the same
// index built unsharded (MRQ unions the shard answers, MkNNQ merges the
// per-shard k-candidates):
//
//	builder := func(sub *metricindex.Dataset) (metricindex.Index, error) {
//		pivots, err := metricindex.SelectPivots(sub, 5, 1)
//		if err != nil {
//			return nil, err
//		}
//		return metricindex.NewLAESA(sub, pivots)
//	}
//	idx, _ := metricindex.NewSharded(builder, ds, metricindex.ShardOptions{Shards: 4})
//	ids, _ := idx.RangeSearch(q, 5) // probes all 4 shards concurrently
//
// A Sharded index is itself an Index, so it composes with the batch
// engine: a NewEngine batch over it overlaps queries and shard probes.
// Insert and Delete route through a pluggable partitioner (round-robin by
// default, or HashPartitioner).
//
// # Live updates and serving
//
// NewLive wraps any Index (including a Sharded one) behind reader/writer
// epochs, making it safe to interleave writes with in-flight
// searches — the epoch contract: searches run in shared read sections,
// updates in exclusive write sections, every committed write advances a
// monotone Epoch naming the dataset version a search observed. A Live
// index is hot-swappable: Swap rebuilds the structure in the background
// (searches and updates keep flowing), replays the updates that arrived
// meanwhile, and cuts over atomically with zero dropped or wrong
// answers.
//
//	live := metricindex.NewLive(ds, idx)
//	go live.KNNSearch(q, 10)                   // reads...
//	live.AddAttrsAt(obj, nil)                  // ...safely interleave with writes
//	live.Swap(rebuild)                         // graceful re-index under load
//
// A Live index has one query path: Live.Search takes a Query — Kind
// (QueryRange or QueryKNN), Object, Radius or K, an optional Filter
// predicate — and returns an Answer: the IDs or Neighbors, the Epoch
// they are exact for (read in the same read section as the answer),
// the plan Strategy a filter ran under, and whether the answer cache
// served it (Cached). Search is the only code that probes the cache,
// enters the read section and plans a filter; the other search methods
// are adapters over it that pick fields of the Answer — RangeSearch
// and KNNSearch (the Reader interface), RangeSearchAt and KNNSearchAt
// (plus the epoch), RangeSearchFiltered and KNNSearchFiltered (plus
// the strategy; zero means served from the cache). Engine.Batch is the
// batch counterpart, with BatchRangeSearch and BatchKNNSearch as its
// adapters.
//
//	ans, _ := live.Search(metricindex.Query{Kind: metricindex.QueryKNN, Object: q, K: 10})
//	_ = ans.Neighbors // at dataset version ans.Epoch
//
// NewServer exposes a Live index over HTTP/JSON — range/kNN/batch
// queries, inserts, deletes, graceful swap, per-client and per-endpoint
// stats (qps, p50/p95/p99 latency, compdists, page accesses) — with
// admission control that bounds in-flight queries and sheds excess load.
// The cmd/mserve binary is that server around any of the paper's
// structures.
//
// # Caching
//
// The library has two caches at two different levels.
//
// The page cache is the paper's: disk-based indexes run against a
// simulated page store that counts page accesses exactly as the paper
// reports them, and DiskOptions.CacheBytes enables the §6.1 LRU buffer
// (128 KB by default via DefaultCacheBytes) that reduces PA on MkNNQ.
// It caches pages, so a hot query still pays all of its distance
// computations on every arrival.
//
// The answer cache (CacheOptions, on NewLive and ServerOptions) sits
// above the index and memoizes whole query answers. Entries are keyed by
// (query object, query kind, radius|k, filter, epoch) — the epoch being the
// monotone write counter a Live index reports from inside every search's
// read section. That keying makes invalidation free and exact: any
// committed write or swap bumps the epoch, so every
// cached answer self-invalidates at once, and a search that starts after
// a write commits can never be served a pre-write answer. A hit is
// byte-identical to a fresh search and costs zero compdists and zero
// page accesses; concurrent identical misses collapse onto a single
// search (singleflight). The batch engine probes the cache per query
// before dispatching, so hot batches never wait on the worker pool:
//
//	live := metricindex.NewLive(ds, idx, metricindex.CacheOptions{MaxBytes: 64 << 20})
//	live.KNNSearch(q, 10)     // computes and fills
//	live.KNNSearch(q, 10)     // served memoized, 0 compdists
//	live.AddAttrsAt(obj, nil) // epoch bump: every entry invalid
//	st, _ := live.CacheStats()
//
// # Batched distance kernels
//
// Scalar Metric.Distance is the universal contract, but the built-in
// vector metrics (L1, L2, LInf, IntLInf) additionally implement
// BatchMetric: DistanceMany evaluates one query against a slice of
// objects, and DistanceFlat runs directly over packed row-major
// coordinates with unrolled, bounds-check-hoisted loops (L2 keeps the
// square root out of the accumulation loop). The pivot tables detect the
// capability automatically: query-pivot distances go through
// DistanceMany, candidate verification runs over a flat coordinate
// mirror of the table rows, and per-query buffers come from a scratch
// pool, so a steady-state LAESA/EPT query allocates nothing. Batched
// answers are bit-for-bit identical to the scalar path because the
// scalar metrics delegate to the same kernels. Vector32 holds float32
// coordinates (half the memory per table row); its kernels widen every
// coordinate to float64 before accumulating, so distances stay
// deterministic, but the metric contract only holds among Vector32
// values of equal quantization. docs/KERNELS.md specifies the layout,
// the scratch rules, and the float32 pruning-safety caveats.
package metricindex

import (
	"metricindex/internal/core"
	"metricindex/internal/pivot"
)

// Object is any value a Metric can compare.
type Object = core.Object

// Vector is a point in R^d (use with L1, L2, LInf, Lp).
type Vector = core.Vector

// IntVector is an integer-coordinate point (use with IntLInf, the
// discrete Chebyshev metric required by BKT and FQT).
type IntVector = core.IntVector

// Vector32 is a float32-coordinate point: half the memory of a Vector
// per dimension, compared by the same vector metrics through kernels
// that widen to float64 before accumulating (see "Batched distance
// kernels" above).
type Vector32 = core.Vector32

// Word is a string compared with edit distance.
type Word = core.Word

// Metric is a distance function satisfying the metric axioms.
type Metric = core.Metric

// BatchMetric is the optional batched capability of a Metric (see
// "Batched distance kernels" above). All built-in vector metrics
// implement it; custom metrics may ignore it and every index still
// works through scalar Distance.
type BatchMetric = core.BatchMetric

// The built-in metrics.
type (
	// L1 is the Manhattan distance over Vectors.
	L1 = core.L1
	// L2 is the Euclidean distance over Vectors.
	L2 = core.L2
	// LInf is the Chebyshev distance over Vectors.
	LInf = core.LInf
	// Lp is the Minkowski distance of order P over Vectors.
	Lp = core.Lp
	// IntLInf is the discrete Chebyshev distance over IntVectors.
	IntLInf = core.IntLInf
	// Edit is the Levenshtein distance over Words.
	Edit = core.Edit
)

// Space is a metric space instrumented with a distance-computation
// counter ("compdists" in the paper).
type Space = core.Space

// NewSpace wraps a metric into an instrumented space.
func NewSpace(m Metric) *Space { return core.NewSpace(m) }

// Dataset is an object collection addressed by dense integer ids.
type Dataset = core.Dataset

// NewDataset builds a dataset over the objects (the slice is owned by the
// dataset afterwards).
func NewDataset(space *Space, objects []Object) *Dataset {
	return core.NewDataset(space, objects)
}

// Neighbor is one kNN answer element.
type Neighbor = core.Neighbor

// Index is the common contract of every index structure in the library:
// MRQ (RangeSearch), MkNNQ (KNNSearch), updates, and the cost counters
// the paper's experiments record.
type Index = core.Index

// Reader is the read half of Index: searches and cost counters. A Live
// index is a Reader; its writes are its own (AddAttrsAt, RemoveAt,
// SetAttrsAt).
type Reader = core.Reader

// BruteForceRange answers MRQ(q, r) by exhaustive scan — the correctness
// baseline.
func BruteForceRange(ds *Dataset, q Object, r float64) []int {
	return core.BruteForceRange(ds, q, r)
}

// BruteForceKNN answers MkNNQ(q, k) by exhaustive scan.
func BruteForceKNN(ds *Dataset, q Object, k int) []Neighbor {
	return core.BruteForceKNN(ds, q, k)
}

// SelectPivots picks k pivots with HFI — the state-of-the-art strategy
// the paper applies to every index for its equal-footing comparison
// (§6.1). The returned ids index into the dataset. HFI chooses among 40
// candidates, so k must be below 40.
func SelectPivots(ds *Dataset, k int, seed int64) ([]int, error) {
	return pivot.HFI(ds, k, pivot.Options{Seed: seed})
}

// SelectPivotsHF picks k outlier pivots with the hull-of-foci algorithm
// of the Omni-family [17].
func SelectPivotsHF(ds *Dataset, k int, seed int64) []int {
	return pivot.HF(ds, pivot.Sample(ds, pivot.Options{Seed: seed}), k, seed)
}

// SelectPivotsRandom picks k pivots uniformly at random (the baseline the
// ablation benchmarks compare against).
func SelectPivotsRandom(ds *Dataset, k int, seed int64) []int {
	return pivot.Random(ds, k, seed)
}
