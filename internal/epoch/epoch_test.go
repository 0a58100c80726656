package epoch_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/exec"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/shard"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// builders returns one constructor per family — a table (LAESA), a tree
// (MVPT), a disk index (SPB-tree), and the sharded scatter-gather front —
// so the epoch guard is exercised against every update-path style in the
// repository. Each is an epoch.Builder, so the same function drives both initial
// construction and Swap rebuilds.
func builders() map[string]epoch.Builder {
	sel := func(ds *core.Dataset) ([]int, error) {
		return pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	}
	return map[string]epoch.Builder{
		"LAESA": func(ds *core.Dataset) (core.Index, error) {
			pv, err := sel(ds)
			if err != nil {
				return nil, err
			}
			return table.NewLAESA(ds, pv)
		},
		"MVPT": func(ds *core.Dataset) (core.Index, error) {
			pv, err := sel(ds)
			if err != nil {
				return nil, err
			}
			return ptree.NewMVPT(ds, pv, ptree.Options{})
		},
		"SPB-tree": func(ds *core.Dataset) (core.Index, error) {
			pv, err := sel(ds)
			if err != nil {
				return nil, err
			}
			return spb.New(ds, store.NewPager(512), pv, spb.Options{MaxDistance: 400})
		},
		"Sharded": func(ds *core.Dataset) (core.Index, error) {
			return shard.New(ds, func(sub *core.Dataset) (core.Index, error) {
				pv, err := sel(sub)
				if err != nil {
					return nil, err
				}
				return table.NewLAESA(sub, pv)
			}, shard.Options{Shards: 3})
		},
	}
}

func newLive(t *testing.T, name string, build epoch.Builder, n int) *epoch.Live {
	t.Helper()
	ds := testutil.VectorDataset(n, 4, 100, core.L2{}, 9)
	idx, err := build(ds)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	return epoch.NewLive(ds, idx)
}

// randomQuery synthesizes a query object from the live dataset in a read
// section.
func randomQuery(l *epoch.Live, seed int64) core.Object {
	var q core.Object
	l.View(func(ds *core.Dataset, _ core.Index) { q = testutil.RandomQuery(ds, seed) })
	return q
}

// checkQuiesced compares the live index's answers against a brute-force
// scan of its current dataset with no concurrent activity.
func checkQuiesced(t *testing.T, l *epoch.Live) {
	t.Helper()
	l.View(func(ds *core.Dataset, idx core.Index) {
		for qs := int64(0); qs < 3; qs++ {
			q := testutil.RandomQuery(ds, qs)
			testutil.CheckRange(t, idx, ds, q, 30)
			testutil.CheckKNN(t, idx, ds, q, 8)
		}
	})
}

// TestMixedReadWrite interleaves Add/Remove with concurrent range and kNN
// searches on every index family. Under -race this is the proof that the
// epoch guard removes the library-wide "do not interleave updates with
// searches" caveat; after quiescing, answers must match a linear scan of
// the final dataset.
func TestMixedReadWrite(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			l := newLive(t, name, build, 400)
			var (
				wg     sync.WaitGroup
				stop   atomic.Bool
				failed atomic.Pointer[error]
			)
			fail := func(err error) {
				e := err
				failed.CompareAndSwap(nil, &e)
				stop.Store(true)
			}

			// Readers: loop searches until the writer finishes. Answers are
			// checked structurally (no error, live-looking results); exact
			// answers are asserted after quiescing, since the baseline moves
			// underneath a concurrent scan.
			queries := make([]core.Object, 8)
			for i := range queries {
				queries[i] = randomQuery(l, int64(100+i))
			}
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						q := queries[(g+i)%len(queries)]
						if g%2 == 0 {
							if _, err := l.RangeSearch(q, 25); err != nil {
								fail(fmt.Errorf("RangeSearch: %w", err))
								return
							}
						} else {
							nns, err := l.KNNSearch(q, 5)
							if err != nil {
								fail(fmt.Errorf("KNNSearch: %w", err))
								return
							}
							for _, nb := range nns {
								if nb.Dist < 0 {
									fail(fmt.Errorf("negative distance %v", nb.Dist))
									return
								}
							}
						}
					}
				}(g)
			}

			// Writer: churn 120 updates through the write path — remove
			// existing objects and add fresh ones — while the readers run.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for i := 0; i < 60; i++ {
					if _, err := l.RemoveAt(i * 3); err != nil {
						fail(fmt.Errorf("Remove(%d): %w", i*3, err))
						return
					}
					if _, _, err := l.AddAttrsAt(core.Vector{float64(i), 50, 50, 50}, nil); err != nil {
						fail(fmt.Errorf("Add: %w", err))
						return
					}
				}
			}()
			wg.Wait()
			if errp := failed.Load(); errp != nil {
				t.Fatal(*errp)
			}
			if got := l.Epoch(); got != 120 {
				t.Fatalf("epoch = %d, want 120 committed writes", got)
			}
			checkQuiesced(t, l)
		})
	}
}

// TestSwapUnderLoad rebuilds every index family while searches and
// updates hammer it: zero dropped queries, zero errors, answers exact
// after quiescing, and the epoch advances for every commit.
func TestSwapUnderLoad(t *testing.T) {
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			l := newLive(t, name, build, 400)
			var before core.Index
			l.View(func(_ *core.Dataset, idx core.Index) { before = idx })

			var (
				wg      sync.WaitGroup
				stop    atomic.Bool
				failed  atomic.Pointer[error]
				queried atomic.Int64
			)
			fail := func(err error) {
				e := err
				failed.CompareAndSwap(nil, &e)
				stop.Store(true)
			}
			queries := make([]core.Object, 8)
			for i := range queries {
				queries[i] = randomQuery(l, int64(200+i))
			}
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						if _, err := l.KNNSearch(queries[(g+i)%len(queries)], 6); err != nil {
							fail(fmt.Errorf("KNNSearch during swap: %w", err))
							return
						}
						queried.Add(1)
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load() && i < 200; i++ {
					if _, err := l.RemoveAt(i); err != nil {
						fail(fmt.Errorf("Remove(%d) during swap: %w", i, err))
						return
					}
					if _, _, err := l.AddAttrsAt(core.Vector{float64(i % 7), 42, 42, 42}, nil); err != nil {
						fail(fmt.Errorf("Add during swap: %w", err))
						return
					}
				}
			}()

			// Each swap's builder waits until at least one query completes
			// mid-build, proving searches overlap the rebuild window (the
			// build holds no locks, so readers must progress).
			overlapping := func(ds *core.Dataset) (core.Index, error) {
				start := queried.Load()
				idx, err := build(ds)
				deadline := time.Now().Add(5 * time.Second)
				for queried.Load() <= start && failed.Load() == nil && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if queried.Load() <= start && failed.Load() == nil {
					return nil, errors.New("no query completed during the rebuild")
				}
				return idx, err
			}
			for s := 0; s < 3; s++ {
				if err := l.Swap(overlapping); err != nil {
					fail(fmt.Errorf("Swap %d: %w", s, err))
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			if errp := failed.Load(); errp != nil {
				t.Fatal(*errp)
			}
			var after core.Index
			l.View(func(_ *core.Dataset, idx core.Index) { after = idx })
			if after == before {
				t.Fatal("swap did not replace the index")
			}
			checkQuiesced(t, l)
		})
	}
}

// TestSwapReplaysUpdates drives the replay path deterministically: the
// builder blocks mid-build while updates commit, and the cutover must
// carry every one of them into the replacement.
func TestSwapReplaysUpdates(t *testing.T) {
	build := builders()["LAESA"]
	l := newLive(t, "LAESA", build, 300)

	building := make(chan struct{})
	finish := make(chan struct{})
	slowBuild := func(ds *core.Dataset) (core.Index, error) {
		close(building)
		<-finish
		return build(ds)
	}

	done := make(chan error, 1)
	go func() { done <- l.Swap(slowBuild) }()
	<-building

	// Commit updates while the build is in flight: remove 10 snapshot
	// objects, add 5 new ones (one of which is removed again).
	for id := 0; id < 10; id++ {
		if _, err := l.RemoveAt(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
	}
	var added []int
	for i := 0; i < 5; i++ {
		id, _, err := l.AddAttrsAt(core.Vector{float64(1000 + i), 0, 0, 0}, nil)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		added = append(added, id)
	}
	if _, err := l.RemoveAt(added[4]); err != nil {
		t.Fatalf("Remove(added): %v", err)
	}
	close(finish)
	if err := <-done; err != nil {
		t.Fatalf("Swap: %v", err)
	}

	l.View(func(ds *core.Dataset, idx core.Index) {
		// Add reuses freed slots, so some of the removed ids were recycled
		// by the adds; the rest must be gone from the swapped-in dataset.
		recycled := make(map[int]bool, len(added))
		for _, id := range added {
			recycled[id] = true
		}
		for id := 0; id < 10; id++ {
			if !recycled[id] && ds.Object(id) != nil {
				t.Fatalf("removed object %d survived the swap", id)
			}
		}
		for i, id := range added[:4] {
			got, err := idx.RangeSearch(core.Vector{float64(1000 + i), 0, 0, 0}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != id {
				t.Fatalf("added object %d not found post-swap: got %v", id, got)
			}
		}
		if ds.Object(added[4]) != nil {
			t.Fatalf("add+remove pair: object %d should be gone", added[4])
		}
	})
	checkQuiesced(t, l)
}

// TestSwapInProgress rejects a second concurrent swap and recovers after
// a failed build.
func TestSwapInProgress(t *testing.T) {
	build := builders()["MVPT"]
	l := newLive(t, "MVPT", build, 200)

	building := make(chan struct{})
	finish := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- l.Swap(func(ds *core.Dataset) (core.Index, error) {
			close(building)
			<-finish
			return nil, errors.New("boom")
		})
	}()
	<-building
	if err := l.Swap(build); !errors.Is(err, epoch.ErrSwapInProgress) {
		t.Fatalf("concurrent swap: got %v, want epoch.ErrSwapInProgress", err)
	}
	close(finish)
	if err := <-done; err == nil {
		t.Fatal("failed build must surface its error")
	}
	// The failed swap must leave the live structure serving and unlocked.
	if err := l.Swap(build); err != nil {
		t.Fatalf("swap after failed swap: %v", err)
	}
	checkQuiesced(t, l)
}

// TestLiveThroughBatchEngine checks Live composes with internal/exec: a
// batch over a Live index runs concurrently with a writer, and every
// per-query answer is internally consistent (each query sees one epoch).
func TestLiveThroughBatchEngine(t *testing.T) {
	build := builders()["LAESA"]
	l := newLive(t, "LAESA", build, 400)
	var space *core.Space
	l.View(func(ds *core.Dataset, _ core.Index) { space = ds.Space() })
	eng := exec.New(space, exec.Options{Workers: 4})

	queries := make([]core.Object, 64)
	for i := range queries {
		queries[i] = randomQuery(l, int64(300+i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := l.RemoveAt(i * 2); err != nil {
				t.Errorf("Remove: %v", err)
				return
			}
			if _, _, err := l.AddAttrsAt(core.Vector{float64(i), 1, 2, 3}, nil); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	res, err := eng.BatchKNNSearch(context.Background(), l, queries, 5)
	wg.Wait()
	if err != nil {
		t.Fatalf("BatchKNNSearch over Live: %v", err)
	}
	if res.Stats.Queries != len(queries) {
		t.Fatalf("dropped queries: got %d, want %d", res.Stats.Queries, len(queries))
	}
	checkQuiesced(t, l)
}
