package epoch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// Builder constructs the replacement index during a Swap. It receives a
// private snapshot of the dataset (same Space, same identifiers) and must
// index every live object in it; any constructor in the library serves.
type Builder func(ds *core.Dataset) (core.Index, error)

// ErrSwapInProgress is returned by Swap when a rebuild is already running.
var ErrSwapInProgress = errors.New("epoch: swap already in progress")

// Live is an index whose updates are epoch-synchronized with its
// searches. It is a core.Reader, so it drops into everything that only
// searches — the batch engine, the server — while lifting the
// library-wide "do not interleave updates with searches" restriction
// for the structure it wraps.
//
// Live owns its writes: AddAttrsAt, RemoveAt and SetAttrsAt are its
// only ones, and each changes dataset, index and estimator inside the
// same write section, so the three always hold the same objects.
type Live struct {
	mu       sync.RWMutex
	ds       *core.Dataset
	idx      core.Index
	epoch    uint64
	swapping bool
	log      []Write
	journal  Journal
	// cache is the optional epoch-keyed answer cache. Entries are keyed
	// by the epoch a search observed, so every committed write or swap
	// invalidates the whole working set for free; see SetCache.
	cache atomic.Pointer[cache.Cache]
	// metrics is the optional obs attachment (SetObs); outside the lock
	// discipline like cache.
	metrics atomic.Pointer[Obs]
	// stats is the planner's selectivity estimator, mutated only inside
	// write sections and read only inside read sections, so filtered
	// searches always plan against exactly the dataset version they
	// answer over.
	stats *plan.Stats
}

// NewLive wraps an index and the dataset it was built over, seeding the
// planner's selectivity estimator from the dataset's live objects.
func NewLive(ds *core.Dataset, idx core.Index) *Live {
	st := plan.NewStats()
	for id, o := range ds.Objects() {
		if o != nil {
			st.ObserveRow(ds, id)
		}
	}
	return &Live{ds: ds, idx: idx, stats: st}
}

// SetCache attaches (or, with nil, detaches) an epoch-keyed answer
// cache. Subsequent searches (Search and every adapter over it) consult
// it before touching the index: a hit returns the memoized answer — byte-identical
// to a fresh search, zero compdists, zero page accesses — and concurrent
// identical misses collapse onto one search. Correctness needs no
// flushing: entries are keyed by the epoch the answer observed, and
// every committed write or swap advances the epoch, so
// a search that starts after a write commits can never be served a
// pre-write answer.
func (l *Live) SetCache(c *cache.Cache) {
	l.cache.Store(c)
}

// CacheStats snapshots the attached cache's counters; ok is false when
// no cache is attached.
func (l *Live) CacheStats() (cache.Stats, bool) {
	c := l.cache.Load()
	if c == nil {
		return cache.Stats{}, false
	}
	return c.Stats(), true
}

// SetJournal attaches (or, with nil, detaches) a write-ahead journal.
// Every subsequently committed write or swap is appended
// to it — with the epoch the write committed at — inside the committing
// write section, so the journal observes exactly the committed sequence.
// If Append fails the write is rolled back and the error returned, so a
// caller never sees a commit the journal missed.
func (l *Live) SetJournal(j Journal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal = j
}

// SetEpoch overwrites the epoch counter. It exists for restore paths
// that resurrect a Live at the epoch a snapshot was taken (see
// internal/persist); do not call it on a serving index — epochs must
// stay monotone for cache correctness.
func (l *Live) SetEpoch(e uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.epoch = e
}

// Snapshot runs fn in a read section over the current dataset, index and
// epoch — like View, but exposing the epoch observed by the same read
// section (which an Epoch() call after View cannot guarantee) and
// propagating fn's error. It is the consistency primitive behind
// persist's snapshot writer.
func (l *Live) Snapshot(fn func(ds *core.Dataset, idx core.Index, epoch uint64) error) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return fn(l.ds, l.idx, l.epoch)
}

// Epoch returns the number of committed write sections (updates and
// swaps). Two searches returning the same epoch observed the same dataset
// version.
func (l *Live) Epoch() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.epoch
}

// View runs fn in a read section over the current dataset and index —
// the safe way to take a consistent look at both (stats, verification,
// snapshotting). fn must not mutate either and must not call back into l.
func (l *Live) View(fn func(ds *core.Dataset, idx core.Index)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fn(l.ds, l.idx)
}

// Swap rebuilds the index in the background and atomically cuts over.
//
// The dataset is snapshotted in one write section; build runs over the
// private snapshot with no locks held, so searches and updates proceed
// unhindered on the live structure for the whole rebuild. Updates
// committed during the build are recorded and replayed onto the
// replacement inside the final write section, then the snapshot dataset
// and the new index become current. If build fails, the live structure is
// untouched. One swap may run at a time; concurrent calls return
// ErrSwapInProgress.
func (l *Live) Swap(build Builder) error {
	if build == nil {
		return fmt.Errorf("epoch: nil builder")
	}
	swapStart := time.Now()
	l.mu.Lock()
	if l.swapping {
		l.mu.Unlock()
		return ErrSwapInProgress
	}
	l.swapping = true
	l.log = nil
	snap := snapshot(l.ds)
	l.mu.Unlock()

	idx, err := build(snap)
	if err == nil && idx == nil {
		err = fmt.Errorf("epoch: builder returned nil index")
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.swapping = false
	log := l.log
	l.log = nil
	if err != nil {
		return fmt.Errorf("epoch: swap build: %w", err)
	}
	if err := replay(snap, idx, log); err != nil {
		return fmt.Errorf("epoch: swap replay: %w", err)
	}
	// Discard construction-time page accesses so the counters keep
	// measuring serving cost across the cutover, exactly as the initial
	// build's post-construction reset does.
	idx.ResetStats()
	l.ds, l.idx = snap, idx
	l.epoch++
	if l.journal != nil {
		// The swap has committed — searches already see the new structure
		// (which answers identically) — so the marker cannot be rolled
		// back; surface the journal failure to the caller instead.
		if err := l.journal.Append(OpSwap, l.epoch, 0, nil, nil); err != nil {
			return fmt.Errorf("epoch: swap committed but journal append failed: %w", err)
		}
	}
	if m := l.metrics.Load(); m != nil {
		m.Swaps.Inc()
		m.SwapSeconds.Observe(time.Since(swapStart).Seconds())
	}
	return nil
}

// snapshot clones the dataset: same Space (compdists accounting stays
// global), same identifiers, copied object slots and attribute columns.
func snapshot(ds *core.Dataset) *core.Dataset {
	objs := append([]core.Object(nil), ds.Objects()...)
	snap := core.NewDataset(ds.Space(), objs)
	snap.CopyAttrsFrom(ds)
	return snap
}

// Name reports the wrapped index's name.
func (l *Live) Name() string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.Name()
}

// PageAccesses reports the wrapped index's counter.
func (l *Live) PageAccesses() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.PageAccesses()
}

// ResetStats zeroes the wrapped index's counters.
func (l *Live) ResetStats() {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.idx.ResetStats()
}

// MemBytes reports the wrapped index's resident size.
func (l *Live) MemBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.MemBytes()
}

// DiskBytes reports the wrapped index's simulated-disk size.
func (l *Live) DiskBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.DiskBytes()
}
