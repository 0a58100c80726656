package epoch_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/exec"
)

// newCachedLive builds a Live with an answer cache over one index family.
func newCachedLive(t *testing.T, name string, build epoch.Builder, n int) (*epoch.Live, *cache.Cache) {
	t.Helper()
	l := newLive(t, name, build, n)
	c := cache.New(cache.Options{})
	l.SetCache(c)
	return l, c
}

// TestCachedAnswerIdentical is the equivalence proof across every index
// family (table, tree, disk, sharded): a cache hit must return answers
// byte-identical to the uncached call and to a brute-force scan, while
// computing zero distances.
func TestCachedAnswerIdentical(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			l, c := newCachedLive(t, name, build, 400)
			var space *core.Space
			l.View(func(ds *core.Dataset, _ core.Index) { space = ds.Space() })

			queries := make([]core.Object, 6)
			for i := range queries {
				queries[i] = randomQuery(l, int64(700+i))
			}
			const r, k = 25.0, 7

			// Pass 1 fills; keep the fresh answers.
			freshIDs := make([][]int, len(queries))
			freshNNs := make([][]core.Neighbor, len(queries))
			for i, q := range queries {
				var err error
				if freshIDs[i], err = l.RangeSearch(q, r); err != nil {
					t.Fatal(err)
				}
				if freshNNs[i], err = l.KNNSearch(q, k); err != nil {
					t.Fatal(err)
				}
			}

			// Pass 2 must be all hits: identical answers, zero compdists.
			base := space.CompDists()
			for i, q := range queries {
				ids, ep, err := l.RangeSearchAt(q, r)
				if err != nil {
					t.Fatal(err)
				}
				if ep != l.Epoch() {
					t.Fatalf("query %d: hit at epoch %d, live at %d", i, ep, l.Epoch())
				}
				if !reflect.DeepEqual(ids, freshIDs[i]) && !(len(ids) == 0 && len(freshIDs[i]) == 0) {
					t.Fatalf("query %d: cached MRQ %v != fresh %v", i, ids, freshIDs[i])
				}
				nns, _, err := l.KNNSearchAt(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(nns, freshNNs[i]) && !(len(nns) == 0 && len(freshNNs[i]) == 0) {
					t.Fatalf("query %d: cached MkNNQ %v != fresh %v", i, nns, freshNNs[i])
				}
			}
			if d := space.CompDists() - base; d != 0 {
				t.Fatalf("hit pass computed %d distances, want 0", d)
			}
			st := c.Stats()
			if st.Hits < int64(2*len(queries)) {
				t.Fatalf("hits = %d, want >= %d", st.Hits, 2*len(queries))
			}

			// The cached answers also agree with a brute-force scan.
			l.View(func(ds *core.Dataset, _ core.Index) {
				for i, q := range queries {
					want := core.BruteForceRange(ds, q, r)
					got := append([]int(nil), freshIDs[i]...)
					sort.Ints(got)
					if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
						t.Fatalf("query %d: MRQ %v, brute force %v", i, got, want)
					}
				}
			})
		})
	}
}

// TestCacheInvalidatedByEveryWritePath proves that each write path —
// Add, Remove and Swap — bumps the epoch and makes the next lookup recompute rather than serve the
// pre-write answer.
func TestCacheInvalidatedByEveryWritePath(t *testing.T) {
	build := builders()["LAESA"]
	l, c := newCachedLive(t, "LAESA", build, 300)

	// A marker inside the data range but equal to no stored object: MRQ(marker, 0) is
	// exactly {marker} when present and {} when absent.
	marker := core.Vector{50.123, 60.456, 70.789, 80.101}

	expectAnswer := func(step string, wantPresent bool) {
		t.Helper()
		ids, ep, err := l.RangeSearchAt(marker, 0)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if ep != l.Epoch() {
			t.Fatalf("%s: answer epoch %d, live %d", step, ep, l.Epoch())
		}
		if wantPresent && len(ids) != 1 {
			t.Fatalf("%s: marker missing, got %v", step, ids)
		}
		if !wantPresent && len(ids) != 0 {
			t.Fatalf("%s: stale marker served, got %v", step, ids)
		}
	}

	expectAnswer("initial", false)
	expectAnswer("initial (cached)", false)

	id, _, err := l.AddAttrsAt(marker, nil)
	if err != nil {
		t.Fatal(err)
	}
	expectAnswer("after Add", true)

	if _, err := l.RemoveAt(id); err != nil {
		t.Fatal(err)
	}
	expectAnswer("after Remove", false)

	// Swap: prime the cache, cut over, and require a recompute (the new
	// structure answers, not the memo of the old one).
	expectAnswer("pre-swap (cached)", false)
	stBefore := c.Stats()
	if err := l.Swap(build); err != nil {
		t.Fatal(err)
	}
	expectAnswer("after Swap", false)
	stAfter := c.Stats()
	if stAfter.Misses == stBefore.Misses {
		t.Fatal("post-swap lookup was served from the pre-swap cache")
	}
}

// writeEvent is one committed marker state change, stamped with its
// commit epoch (AddAt/RemoveAt return it from inside the write section).
type writeEvent struct {
	epoch   uint64
	present bool
	id      int
}

// sample is one observed answer, stamped with the epoch it reports.
type sample struct {
	epoch uint64
	ids   []int
}

// stateAt returns the marker state current at the given epoch: the last
// event with event.epoch <= epoch (swap commits bump the epoch without
// an event, leaving the state unchanged).
func stateAt(events []writeEvent, epoch uint64) writeEvent {
	i := sort.Search(len(events), func(i int) bool { return events[i].epoch > epoch })
	if i == 0 {
		return writeEvent{}
	}
	return events[i-1]
}

// TestCacheNoStaleAnswersUnderChurn is the -race invalidation proof:
// readers hammer one hot (hence heavily cached) query while a writer
// flips a marker object in and out and a swapper repeatedly rebuilds
// and cuts the index over. Every observed answer must match the
// committed marker state at the exact epoch the answer reports — one
// stale cache entry served after its epoch passed fails the test.
func TestCacheNoStaleAnswersUnderChurn(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			l, c := newCachedLive(t, name, build, 200)
			marker := core.Vector{50.123, 60.456, 70.789, 80.101}

			var (
				mu     sync.Mutex
				events = []writeEvent{{epoch: 0, present: false}}
				stop   atomic.Bool
				wg     sync.WaitGroup
				fail   atomic.Pointer[error]
			)
			abort := func(err error) {
				e := err
				fail.CompareAndSwap(nil, &e)
				stop.Store(true)
			}

			// Readers: collect a fixed number of (epoch, answer) samples
			// each; verified post-hoc against the complete event log so
			// sampling never races the log append that follows a commit.
			const readsPerReader = 300
			var readersDone atomic.Int64
			samples := make([][]sample, 4)
			for g := range samples {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					defer readersDone.Add(1)
					for i := 0; i < readsPerReader && !stop.Load(); i++ {
						ids, ep, err := l.RangeSearchAt(marker, 0)
						if err != nil {
							abort(fmt.Errorf("reader: %w", err))
							return
						}
						samples[g] = append(samples[g], sample{epoch: ep, ids: ids})
					}
				}(g)
			}

			// Writer: flip the marker for as long as the readers sample
			// (bounded, so an aborted run cannot spin forever), logging
			// each commit epoch.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for i := 0; readersDone.Load() < int64(len(samples)) && !stop.Load() && i < 50000; i++ {
					id, ep, err := l.AddAttrsAt(marker, nil)
					if err != nil {
						abort(fmt.Errorf("AddAt: %w", err))
						return
					}
					mu.Lock()
					events = append(events, writeEvent{epoch: ep, present: true, id: id})
					mu.Unlock()
					ep, err = l.RemoveAt(id)
					if err != nil {
						abort(fmt.Errorf("RemoveAt: %w", err))
						return
					}
					mu.Lock()
					events = append(events, writeEvent{epoch: ep, present: false})
					mu.Unlock()
				}
			}()

			// Swapper: cut the structure over repeatedly mid-churn.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if err := l.Swap(build); err != nil && !errors.Is(err, epoch.ErrSwapInProgress) {
						abort(fmt.Errorf("Swap: %w", err))
						return
					}
				}
			}()

			wg.Wait()
			if errp := fail.Load(); errp != nil {
				t.Fatal(*errp)
			}

			total := 0
			for _, part := range samples {
				for _, s := range part {
					total++
					want := stateAt(events, s.epoch)
					if want.present {
						if len(s.ids) != 1 || s.ids[0] != want.id {
							t.Fatalf("epoch %d: marker committed as id %d, answer %v", s.epoch, want.id, s.ids)
						}
					} else if len(s.ids) != 0 {
						t.Fatalf("epoch %d: marker absent, stale answer %v", s.epoch, s.ids)
					}
				}
			}
			if total == 0 {
				t.Fatal("readers collected no samples")
			}
			// Deterministic hit check now that the churn has quiesced: the
			// second identical read must be served from the cache.
			if _, _, err := l.RangeSearchAt(marker, 0); err != nil {
				t.Fatal(err)
			}
			before := c.Stats()
			if _, _, err := l.RangeSearchAt(marker, 0); err != nil {
				t.Fatal(err)
			}
			if after := c.Stats(); after.Hits == before.Hits {
				t.Fatal("quiesced repeat lookup did not hit the cache")
			}
			checkQuiesced(t, l)
		})
	}
}

// TestCachedLiveThroughBatchEngine proves the engine's pre-dispatch
// probe composes with a cached Live: a second identical batch is served
// (almost) entirely from cache with zero distance computations, and its
// answers equal the first batch's.
func TestCachedLiveThroughBatchEngine(t *testing.T) {
	build := builders()["LAESA"]
	l, _ := newCachedLive(t, "LAESA", build, 400)
	var space *core.Space
	l.View(func(ds *core.Dataset, _ core.Index) { space = ds.Space() })
	eng := exec.New(space, exec.Options{Workers: 4})

	queries := make([]core.Object, 32)
	for i := range queries {
		queries[i] = randomQuery(l, int64(900+i))
	}
	cold, err := eng.BatchKNNSearch(context.Background(), l, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := space.CompDists()
	hot, err := eng.BatchKNNSearch(context.Background(), l, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := space.CompDists() - base; d != 0 {
		t.Fatalf("hot batch computed %d distances, want 0", d)
	}
	if hot.Stats.CacheHits != len(queries) {
		t.Fatalf("hot batch CacheHits = %d, want %d", hot.Stats.CacheHits, len(queries))
	}
	if !reflect.DeepEqual(cold.Neighbors, hot.Neighbors) {
		t.Fatal("hot batch answers differ from cold batch")
	}

	// A write invalidates: the next batch recomputes.
	if _, _, err := l.AddAttrsAt(core.Vector{1, 2, 3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	post, err := eng.BatchKNNSearch(context.Background(), l, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if post.Stats.CacheHits != 0 {
		t.Fatalf("post-write batch reported %d stale hits", post.Stats.CacheHits)
	}
}
