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

// Op names a journaled write, mirroring the four update paths of Live
// plus the swap marker. The numeric values are part of the on-disk WAL
// format (docs/PERSISTENCE.md) and must not be renumbered.
type Op uint8

const (
	// OpAdd is a Live.Add / Live.AddAt: object inserted into dataset and
	// index. The record carries the object.
	OpAdd Op = 1
	// OpRemove is a Live.Remove / Live.RemoveAt: object deleted from
	// index and dataset.
	OpRemove Op = 2
	// OpInsert is the index-only Live.Insert compatibility path. The
	// record carries the object (fetched from the dataset at append
	// time) so replay can restore it even if the snapshot predates it.
	OpInsert Op = 3
	// OpDelete is the index-only Live.Delete compatibility path.
	OpDelete Op = 4
	// OpSwap marks a committed Swap. The structure rebuild changes no
	// answers, so replay only advances the epoch.
	OpSwap Op = 5
	// OpSetAttrs is a Live.SetAttrsAt: the object's attribute bag
	// replaced in place. The record carries the new bag (nil clears).
	OpSetAttrs Op = 6
)

// Journal receives every committed write with the epoch it committed at,
// inside the committing write section and before the commit is
// acknowledged to the caller — the durability contract a write-ahead log
// needs. An Append error aborts the write: Live rolls the update back
// and returns the error. internal/persist.WAL is the on-disk
// implementation. attrs is the caller's bag or, for OpInsert, a view of
// the dataset row (core.AttrRow), valid only during the call.
type Journal interface {
	Append(op Op, epoch uint64, id int, obj core.Object, attrs core.AttrSource) error
}

// logEntry is one update recorded while a swap builds, for replay onto
// the replacement at cutover.
type logEntry struct {
	insert   bool
	setAttrs bool // attrs-only update: replace the bag, touch nothing else
	id       int
	obj      core.Object     // the inserted object; nil for deletes
	attrs    core.AttrSource // the inserted object's attributes, if any
}

// Live is an index whose updates are epoch-synchronized with its
// searches. It implements core.Index, so it drops into everything that
// consumes one — the batch engine, the sharded front, the bench harness —
// while lifting the library-wide "do not interleave updates with
// searches" restriction for the structure it wraps.
//
// Live owns its dataset: mutate it only through Add and Remove (or the
// Insert/Delete compatibility methods), never directly, so that dataset
// and index always change inside the same write section.
type Live struct {
	mu       sync.RWMutex
	ds       *core.Dataset
	idx      core.Index
	epoch    uint64
	swapping bool
	log      []logEntry
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
// every committed Add/Remove/Insert/Delete/Swap advances the epoch, so
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
// Every subsequently committed Add/Remove/Insert/Delete/Swap is appended
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

// Apply replays one journal record onto the live structure without
// re-journaling it, setting the epoch to the record's epoch — the
// recovery path (records must arrive in their original order). OpAdd
// restores the object under its exact original id; OpInsert inserts the
// recorded object into the dataset first if the snapshot predates it;
// OpSwap only advances the epoch (a rebuild changes no answers).
func (l *Live) Apply(op Op, epoch uint64, id int, obj core.Object, attrs core.Attrs) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch op {
	case OpAdd:
		if err := l.ds.InsertAt(id, obj); err != nil {
			return err
		}
		if attrs != nil {
			if err := l.ds.SetAttrs(id, attrs); err != nil {
				return err
			}
		}
		if err := l.idx.Insert(id); err != nil {
			return err
		}
		l.stats.Observe(attrs)
	case OpRemove:
		if err := l.idx.Delete(id); err != nil {
			return err
		}
		if err := l.removeRow(id); err != nil {
			return err
		}
	case OpInsert:
		if l.ds.Object(id) == nil {
			if err := l.ds.InsertAt(id, obj); err != nil {
				return err
			}
			if attrs != nil {
				if err := l.ds.SetAttrs(id, attrs); err != nil {
					return err
				}
			}
		}
		if err := l.idx.Insert(id); err != nil {
			return err
		}
		l.stats.ObserveRow(l.ds, id)
	case OpDelete:
		if err := l.idx.Delete(id); err != nil {
			return err
		}
		l.stats.RemoveRow(l.ds, id)
	case OpSetAttrs:
		if err := l.setAttrs(id, attrs); err != nil {
			return err
		}
	case OpSwap:
		// Structure rebuild: answers unchanged, only the epoch moves.
	default:
		return fmt.Errorf("epoch: unknown journal op %d", op)
	}
	if epoch > l.epoch {
		l.epoch = epoch
	}
	return nil
}

// journalAppend writes the record for the write section about to commit
// at epoch+1. Caller holds the write lock and must roll back on error.
//
//metriclint:locked
func (l *Live) journalAppend(op Op, id int, obj core.Object, attrs core.AttrSource) error {
	if l.journal == nil {
		return nil
	}
	if err := l.journal.Append(op, l.epoch+1, id, obj, attrs); err != nil {
		return fmt.Errorf("epoch: journal append: %w", err)
	}
	return nil
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

// Add inserts a new object into the dataset and the index in one write
// section and returns its identifier.
func (l *Live) Add(o core.Object) (int, error) {
	id, _, err := l.AddAt(o)
	return id, err
}

// AddAt is Add reporting also the epoch the write committed at — unlike
// a separate Epoch() call, the returned value cannot include later
// writers' commits.
func (l *Live) AddAt(o core.Object) (int, uint64, error) {
	return l.AddAttrsAt(o, nil)
}

// AddAttrs is Add carrying an attribute bag for the new object; the bag
// becomes visible to filtered searches in the same committed epoch as
// the object itself.
func (l *Live) AddAttrs(o core.Object, a core.Attrs) (int, error) {
	id, _, err := l.AddAttrsAt(o, a)
	return id, err
}

// AddAttrsAt is AddAttrs reporting also the epoch the write committed
// at. A nil bag is an object with no attributes (matches no predicate).
func (l *Live) AddAttrsAt(o core.Object, a core.Attrs) (int, uint64, error) {
	if o == nil {
		return 0, 0, fmt.Errorf("epoch: add of nil object")
	}
	waitStart := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeWait(time.Since(waitStart))
	id := l.ds.Insert(o)
	if a != nil {
		if err := l.ds.SetAttrs(id, a); err != nil {
			_ = l.ds.Delete(id)
			return 0, l.epoch, err
		}
	}
	if err := l.idx.Insert(id); err != nil {
		_ = l.ds.Delete(id) // roll the dataset (and its attrs) back
		return 0, l.epoch, err
	}
	if err := l.journalAppend(OpAdd, id, o, a); err != nil {
		_ = l.idx.Delete(id)
		_ = l.ds.Delete(id)
		return 0, l.epoch, err
	}
	l.record(logEntry{insert: true, id: id, obj: o, attrs: a})
	l.stats.Observe(a)
	l.epoch++
	return id, l.epoch, nil
}

// Remove deletes the object from the index and the dataset in one write
// section.
func (l *Live) Remove(id int) error {
	_, err := l.RemoveAt(id)
	return err
}

// RemoveAt is Remove reporting also the epoch the write committed at.
func (l *Live) RemoveAt(id int) (uint64, error) {
	waitStart := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeWait(time.Since(waitStart))
	if err := l.idx.Delete(id); err != nil {
		return l.epoch, err
	}
	// Journal before the dataset forgets the row, so a failed append
	// rolls back the index alone and the row's attributes never need a
	// copy.
	if err := l.journalAppend(OpRemove, id, nil, nil); err != nil {
		_ = l.idx.Insert(id)
		return l.epoch, err
	}
	if err := l.removeRow(id); err != nil {
		return l.epoch, err
	}
	l.record(logEntry{id: id})
	l.epoch++
	return l.epoch, nil
}

// Insert implements core.Index for callers that manage the dataset
// themselves (the object must already be stored under id). Add is the
// fully synchronized path: a direct dataset mutation is not covered by
// the write section and must itself not race with in-flight searches.
func (l *Live) Insert(id int) error {
	waitStart := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeWait(time.Since(waitStart))
	o := l.ds.Object(id)
	if o == nil {
		return fmt.Errorf("epoch: insert of deleted or unknown object %d", id)
	}
	a := l.ds.AttrRow(id)
	if err := l.idx.Insert(id); err != nil {
		return err
	}
	if err := l.journalAppend(OpInsert, id, o, a); err != nil {
		_ = l.idx.Delete(id)
		return err
	}
	// The log keeps a view of the row: replay at cutover, still inside
	// a write section, copies the row as later log entries left it,
	// which is what replaying them in order reaches anyway.
	l.record(logEntry{insert: true, id: id, obj: o, attrs: a})
	l.stats.ObserveRow(l.ds, id)
	l.epoch++
	return nil
}

// Delete implements core.Index for callers that manage the dataset
// themselves: it removes the object from the index only (per the Index
// contract the object stays in the dataset until the caller deletes it).
// Remove is the fully synchronized path.
func (l *Live) Delete(id int) error {
	waitStart := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeWait(time.Since(waitStart))
	if err := l.idx.Delete(id); err != nil {
		return err
	}
	if err := l.journalAppend(OpDelete, id, nil, nil); err != nil {
		o := l.ds.Object(id)
		if o != nil {
			_ = l.idx.Insert(id)
		}
		return err
	}
	l.record(logEntry{id: id})
	l.stats.RemoveRow(l.ds, id)
	l.epoch++
	return nil
}

// record appends to the operation log when a swap is building.
func (l *Live) record(e logEntry) {
	if l.swapping {
		l.log = append(l.log, e)
	}
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

// replay applies the operation log to the replacement dataset and index.
// Entries are checked against the snapshot's occupancy so both paths into
// the log stay correct: an insert whose object already sits in the
// snapshot (dataset mutated before the snapshot, Insert committed after)
// was indexed by the build itself and is skipped; likewise a delete of an
// object the snapshot never held.
func replay(ds *core.Dataset, idx core.Index, log []logEntry) error {
	for _, e := range log {
		if e.setAttrs {
			if ds.Object(e.id) == nil {
				continue // removed before the cutover; nothing to update
			}
			if err := ds.SetAttrs(e.id, e.attrs); err != nil {
				return err
			}
			continue
		}
		if e.insert {
			if ds.Object(e.id) != nil {
				continue // already in the snapshot the build indexed
			}
			if err := ds.InsertAt(e.id, e.obj); err != nil {
				return err
			}
			if e.attrs != nil {
				if err := ds.SetAttrs(e.id, e.attrs); err != nil {
					return err
				}
			}
			if err := idx.Insert(e.id); err != nil {
				return err
			}
		} else {
			if ds.Object(e.id) == nil {
				continue // never made it into the snapshot
			}
			if err := idx.Delete(e.id); err != nil {
				return err
			}
			if err := ds.Delete(e.id); err != nil {
				return err
			}
		}
	}
	return nil
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
