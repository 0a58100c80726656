package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/ptree"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// buildLineup constructs one index per family — a table (LAESA), a tree
// (MVPT), and two disk-based structures (OmniR-tree, SPB-tree) — over the
// same dataset, so the engine is exercised against every query-path style
// in the repository.
func buildLineup(t *testing.T, ds *core.Dataset, maxD float64) map[string]core.Index {
	t.Helper()
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	out := make(map[string]core.Index)

	la, err := table.NewLAESA(ds, pv)
	if err != nil {
		t.Fatalf("NewLAESA: %v", err)
	}
	out["LAESA"] = la

	mv, err := ptree.NewMVPT(ds, pv, ptree.Options{})
	if err != nil {
		t.Fatalf("mvpt.New: %v", err)
	}
	out["MVPT"] = mv

	op := store.NewPager(512)
	ot, err := mtree.NewOmniRTree(ds, op, pv, maxD, 0)
	if err != nil {
		t.Fatalf("mtree.NewOmniRTree: %v", err)
	}
	out["OmniR-tree"] = ot

	sp := store.NewPager(512)
	st, err := spb.New(ds, sp, pv, spb.Options{MaxDistance: maxD})
	if err != nil {
		t.Fatalf("spb.New: %v", err)
	}
	out["SPB-tree"] = st
	return out
}

func queries(ds *core.Dataset, n int) []core.Object {
	qs := make([]core.Object, n)
	for i := range qs {
		qs[i] = testutil.RandomQuery(ds, int64(100+i))
	}
	return qs
}

// TestBatchMatchesSequential checks the engine's core contract: batched
// MRQ and MkNNQ return exactly what a sequential loop over the same index
// returns, positionally aligned, for table, tree, and disk-based indexes.
func TestBatchMatchesSequential(t *testing.T) {
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	qs := queries(ds, 24)
	for name, idx := range buildLineup(t, ds, 300) {
		t.Run(name, func(t *testing.T) {
			eng := New(ds.Space(), Options{Workers: 8})
			const r = 40.0
			const k = 9

			rres, err := eng.BatchRangeSearch(context.Background(), idx, qs, r)
			if err != nil {
				t.Fatalf("BatchRangeSearch: %v", err)
			}
			kres, err := eng.BatchKNNSearch(context.Background(), idx, qs, k)
			if err != nil {
				t.Fatalf("BatchKNNSearch: %v", err)
			}
			if rres.Stats.Queries != len(qs) || kres.Stats.Queries != len(qs) {
				t.Fatalf("stats queries: range %d knn %d, want %d", rres.Stats.Queries, kres.Stats.Queries, len(qs))
			}
			if rres.Stats.CompDists <= 0 || kres.Stats.CompDists <= 0 {
				t.Fatalf("stats compdists not collected: range %d knn %d", rres.Stats.CompDists, kres.Stats.CompDists)
			}
			for i, q := range qs {
				wantIDs, err := idx.RangeSearch(q, r)
				if err != nil {
					t.Fatalf("sequential RangeSearch: %v", err)
				}
				if !reflect.DeepEqual(normIDs(rres.IDs[i]), normIDs(wantIDs)) {
					t.Fatalf("query %d MRQ mismatch:\n got %v\nwant %v", i, rres.IDs[i], wantIDs)
				}
				wantNNs, err := idx.KNNSearch(q, k)
				if err != nil {
					t.Fatalf("sequential KNNSearch: %v", err)
				}
				if !reflect.DeepEqual(kres.Neighbors[i], wantNNs) {
					t.Fatalf("query %d MkNNQ mismatch:\n got %v\nwant %v", i, kres.Neighbors[i], wantNNs)
				}
			}
		})
	}
}

// normIDs maps a nil empty answer and a zero-length answer to the same
// representation (indexes legitimately return either for an empty result).
func normIDs(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	return ids
}

// TestSharedEngineConcurrentBatches hammers one Engine from many
// goroutines running overlapping batches against the whole index lineup —
// the race-detector test for the engine and for every concurrent query
// path it drives.
func TestSharedEngineConcurrentBatches(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 11)
	lineup := buildLineup(t, ds, 300)
	qs := queries(ds, 16)
	eng := New(ds.Space(), Options{Workers: 4})

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		for name, idx := range lineup {
			wg.Add(1)
			go func(name string, idx core.Index, g int) {
				defer wg.Done()
				if g%2 == 0 {
					if _, err := eng.BatchRangeSearch(context.Background(), idx, qs, 35); err != nil {
						errc <- fmt.Errorf("%s: %w", name, err)
					}
				} else {
					if _, err := eng.BatchKNNSearch(context.Background(), idx, qs, 7); err != nil {
						errc <- fmt.Errorf("%s: %w", name, err)
					}
				}
			}(name, idx, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentScratchAnswersExact drives many overlapping batches
// through one scratch-pooled LAESA and checks every concurrent answer
// against the sequential one. TestSharedEngineConcurrentBatches proves
// freedom from data races; this proves the pooled per-query buffers
// (query-pivot distances, lower-bound columns, kNN heaps) are never
// shared between in-flight queries — a recycled-buffer bug corrupts
// answers long before it trips the race detector.
func TestConcurrentScratchAnswersExact(t *testing.T) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 13)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := table.NewLAESA(ds, pv)
	if err != nil {
		t.Fatalf("NewLAESA: %v", err)
	}
	qs := queries(ds, 32)
	const r, k = 35.0, 7
	wantIDs := make([][]int, len(qs))
	wantNNs := make([][]core.Neighbor, len(qs))
	for i, q := range qs {
		if wantIDs[i], err = idx.RangeSearch(q, r); err != nil {
			t.Fatal(err)
		}
		if wantNNs[i], err = idx.KNNSearch(q, k); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(ds.Space(), Options{Workers: 8})
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				res, err := eng.BatchRangeSearch(context.Background(), idx, qs, r)
				if err != nil {
					errc <- err
					return
				}
				for i := range qs {
					if !reflect.DeepEqual(normIDs(res.IDs[i]), normIDs(wantIDs[i])) {
						errc <- fmt.Errorf("goroutine %d query %d: MRQ %v, want %v", g, i, res.IDs[i], wantIDs[i])
						return
					}
				}
			} else {
				res, err := eng.BatchKNNSearch(context.Background(), idx, qs, k)
				if err != nil {
					errc <- err
					return
				}
				for i := range qs {
					if !reflect.DeepEqual(res.Neighbors[i], wantNNs[i]) {
						errc <- fmt.Errorf("goroutine %d query %d: MkNNQ %v, want %v", g, i, res.Neighbors[i], wantNNs[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// slowIndex is a stub index whose queries signal and then count; it lets
// the cancellation test cancel mid-batch deterministically.
type slowIndex struct {
	started   atomic.Int64
	cancel    context.CancelFunc
	cancelled chan struct{} // closed once cancel has returned
}

func newSlowIndex(cancel context.CancelFunc) *slowIndex {
	return &slowIndex{cancel: cancel, cancelled: make(chan struct{})}
}

func (s *slowIndex) Name() string { return "slow" }
func (s *slowIndex) RangeSearch(q core.Object, r float64) ([]int, error) {
	switch n := s.started.Add(1); {
	case n == 3:
		s.cancel() // cancel the batch from inside the third query
		close(s.cancelled)
	case n > 3:
		// A query behind the trigger returns only after cancel has:
		// otherwise the other worker could drain the whole batch while
		// the triggering one is descheduled between Add and cancel.
		<-s.cancelled
	}
	return []int{1}, nil
}
func (s *slowIndex) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return nil, errors.New("slow: knn always fails")
}
func (s *slowIndex) Insert(id int) error { return nil }
func (s *slowIndex) Delete(id int) error { return nil }
func (s *slowIndex) PageAccesses() int64 { return 0 }
func (s *slowIndex) ResetStats()         {}
func (s *slowIndex) MemBytes() int64     { return 0 }
func (s *slowIndex) DiskBytes() int64    { return 0 }

// TestCancellationMidBatch cancels the context partway through a batch
// and expects the engine to stop early and surface context.Canceled.
func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	idx := newSlowIndex(cancel)
	eng := New(nil, Options{Workers: 2})

	const n = 200
	qs := make([]core.Object, n)
	for i := range qs {
		qs[i] = core.Vector{0}
	}
	_, err := eng.BatchRangeSearch(ctx, idx, qs, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if got := idx.started.Load(); got >= n {
		t.Fatalf("batch ran all %d queries despite cancellation", n)
	}
}

// TestQueryErrorAbortsBatch checks that the first query error cancels the
// remaining work and is returned.
func TestQueryErrorAbortsBatch(t *testing.T) {
	idx := newSlowIndex(func() {})
	eng := New(nil, Options{Workers: 4})
	qs := make([]core.Object, 50)
	for i := range qs {
		qs[i] = core.Vector{0}
	}
	_, err := eng.BatchKNNSearch(context.Background(), idx, qs, 3)
	if err == nil || !strings.Contains(err.Error(), "knn always fails") {
		t.Fatalf("expected the query error, got %v", err)
	}
}

// TestPreCancelledContext checks a batch against an already-cancelled
// context does no work.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx := newSlowIndex(func() {})
	eng := New(nil, Options{})
	_, err := eng.BatchRangeSearch(ctx, idx, []core.Object{core.Vector{0}}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if idx.started.Load() != 0 {
		t.Fatalf("query ran despite pre-cancelled context")
	}
}

// TestDefaultWorkers checks the GOMAXPROCS default and the Workers
// accessor.
func TestDefaultWorkers(t *testing.T) {
	if w := New(nil, Options{}).Workers(); w < 1 {
		t.Fatalf("default workers %d < 1", w)
	}
	if w := New(nil, Options{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("explicit workers: got %d want 3", w)
	}
}

// TestEmptyBatch checks the zero-query edge case.
func TestEmptyBatch(t *testing.T) {
	eng := New(nil, Options{Workers: 2})
	res, err := eng.BatchRangeSearch(context.Background(), newSlowIndex(func() {}), nil, 1)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if len(res.IDs) != 0 || res.Stats.Queries != 0 {
		t.Fatalf("empty batch returned %+v", res)
	}
}

// sleepIndex blocks each query briefly, modeling a latency-bound backend.
type sleepIndex struct{ d time.Duration }

func (s *sleepIndex) Name() string { return "sleep" }
func (s *sleepIndex) RangeSearch(q core.Object, r float64) ([]int, error) {
	time.Sleep(s.d)
	return nil, nil
}
func (s *sleepIndex) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	time.Sleep(s.d)
	return nil, nil
}
func (s *sleepIndex) Insert(id int) error { return nil }
func (s *sleepIndex) Delete(id int) error { return nil }
func (s *sleepIndex) PageAccesses() int64 { return 0 }
func (s *sleepIndex) ResetStats()         {}
func (s *sleepIndex) MemBytes() int64     { return 0 }
func (s *sleepIndex) DiskBytes() int64    { return 0 }

// TestLatencyPercentiles pins the nearest-rank definition on a known
// sample and its edge cases.
func TestLatencyPercentiles(t *testing.T) {
	if p50, p95, p99 := LatencyPercentiles(nil); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Fatalf("empty sample: got %v %v %v, want zeros", p50, p95, p99)
	}
	if p50, p95, p99 := LatencyPercentiles([]time.Duration{7}); p50 != 7 || p95 != 7 || p99 != 7 {
		t.Fatalf("single sample: got %v %v %v, want 7s", p50, p95, p99)
	}
	// 1..100 in shuffled order: nearest-rank p50 = 50, p95 = 95, p99 = 99.
	durs := make([]time.Duration, 100)
	for i := range durs {
		durs[i] = time.Duration((i*37)%100 + 1)
	}
	p50, p95, p99 := LatencyPercentiles(durs)
	if p50 != 50 || p95 != 95 || p99 != 99 {
		t.Fatalf("1..100 sample: got %v %v %v, want 50 95 99", p50, p95, p99)
	}
	if durs[0] == 1 && durs[1] == 2 {
		t.Fatal("test expects a shuffled input to prove the copy is sorted, not the original")
	}
}

// TestBatchStatsPercentiles checks a real batch fills the latency
// percentiles and orders them.
func TestBatchStatsPercentiles(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 5)
	pv, err := pivot.HFI(ds, 3, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := table.NewLAESA(ds, pv)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(ds.Space(), Options{Workers: 4})
	res, err := eng.BatchKNNSearch(context.Background(), idx, queries(ds, 32), 5)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
		t.Fatalf("percentiles not filled or out of order: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	if s.P99 > s.Wall {
		t.Fatalf("p99 %v exceeds batch wall %v", s.P99, s.Wall)
	}
}

// TestBatchOverlapsQueries proves the engine actually runs queries
// concurrently (not a disguised sequential loop): 16 queries that each
// block 20ms must finish far faster than 320ms with 8 workers. This holds
// on any machine — overlap of blocked queries does not need extra cores.
func TestBatchOverlapsQueries(t *testing.T) {
	const d = 20 * time.Millisecond
	const n = 16
	eng := New(nil, Options{Workers: 8})
	qs := make([]core.Object, n)
	for i := range qs {
		qs[i] = core.Vector{0}
	}
	res, err := eng.BatchRangeSearch(context.Background(), &sleepIndex{d: d}, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sequential := time.Duration(n) * d
	if res.Stats.Wall >= sequential/2 {
		t.Fatalf("batch wall %v is not at least 2x faster than the %v sequential bound — queries did not overlap", res.Stats.Wall, sequential)
	}
}

// memoIndex is a stub Searcher index: queries listed in cached are
// served by Peek, everything else computes through Search. It lets the
// pre-dispatch probe be tested in isolation.
type memoIndex struct {
	cached   map[int]bool // query index (encoded as the vector's first coord)
	searches atomic.Int64
	peeks    atomic.Int64
}

func (m *memoIndex) qi(q core.Object) int { return int(q.(core.Vector)[0]) }

func (m *memoIndex) Name() string { return "memo" }
func (m *memoIndex) Peek(q plan.Query) (plan.Answer, bool) {
	m.peeks.Add(1)
	if !m.cached[m.qi(q.Object)] {
		return plan.Answer{}, false
	}
	a, _ := m.Search(q)
	m.searches.Add(-1)
	a.Cached = true
	return a, true
}
func (m *memoIndex) Search(q plan.Query) (a plan.Answer, err error) {
	if q.Kind == plan.KindRange {
		a.IDs, err = m.RangeSearch(q.Object, q.Radius)
	} else {
		a.Neighbors, err = m.KNNSearch(q.Object, q.K)
	}
	return a, err
}
func (m *memoIndex) RangeSearch(q core.Object, r float64) ([]int, error) {
	m.searches.Add(1)
	return []int{m.qi(q), 1000}, nil
}
func (m *memoIndex) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	m.searches.Add(1)
	return []core.Neighbor{{ID: m.qi(q), Dist: 0}}, nil
}
func (m *memoIndex) Insert(id int) error { return nil }
func (m *memoIndex) Delete(id int) error { return nil }
func (m *memoIndex) PageAccesses() int64 { return 0 }
func (m *memoIndex) ResetStats()         {}
func (m *memoIndex) MemBytes() int64     { return 0 }
func (m *memoIndex) DiskBytes() int64    { return 0 }

// TestBatchConsultsAnswerCache proves the engine peeks a Searcher
// index per query before dispatching: cached queries never reach the
// worker pool, answers stay positionally aligned and identical either
// way, and Stats.CacheHits reports the probe hits.
func TestBatchConsultsAnswerCache(t *testing.T) {
	const n = 20
	idx := &memoIndex{cached: map[int]bool{}}
	for i := 0; i < n; i += 3 {
		idx.cached[i] = true // every third query is cached
	}
	qs := make([]core.Object, n)
	for i := range qs {
		qs[i] = core.Vector{float64(i)}
	}
	eng := New(nil, Options{Workers: 4})

	res, err := eng.BatchRangeSearch(context.Background(), idx, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := len(idx.cached)
	if res.Stats.CacheHits != wantHits {
		t.Fatalf("CacheHits = %d, want %d", res.Stats.CacheHits, wantHits)
	}
	if got := int(idx.searches.Load()); got != n-wantHits {
		t.Fatalf("%d real searches, want %d (only the misses)", got, n-wantHits)
	}
	for i, ids := range res.IDs {
		if len(ids) != 2 || ids[0] != i || ids[1] != 1000 {
			t.Fatalf("query %d: ids = %v", i, ids)
		}
	}

	idx.searches.Store(0)
	kres, err := eng.BatchKNNSearch(context.Background(), idx, qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if kres.Stats.CacheHits != wantHits {
		t.Fatalf("knn CacheHits = %d, want %d", kres.Stats.CacheHits, wantHits)
	}
	if got := int(idx.searches.Load()); got != n-wantHits {
		t.Fatalf("%d real knn searches, want %d", got, n-wantHits)
	}
	for i, nns := range kres.Neighbors {
		if len(nns) != 1 || nns[0].ID != i {
			t.Fatalf("query %d: nns = %v", i, nns)
		}
	}

	// An index without the interface reports zero hits and still answers.
	plain := &memoIndex{cached: map[int]bool{0: true}}
	type plainIndex struct{ core.Index }
	res2, err := eng.BatchRangeSearch(context.Background(), plainIndex{plain}, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != 0 {
		t.Fatalf("uncached index reported %d hits", res2.Stats.CacheHits)
	}
}
