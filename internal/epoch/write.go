package epoch

import (
	"fmt"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// Op names a journaled write, mirroring the write paths of Live plus
// the swap marker. The numeric values are part of the on-disk WAL
// format (docs/PERSISTENCE.md) and must not be renumbered.
type Op uint8

const (
	// OpAdd is a Live.AddAttrsAt: object stored in the dataset and
	// indexed. The record carries the object and its bag.
	OpAdd Op = 1
	// OpRemove is a Live.RemoveAt: object deleted from index and
	// dataset.
	OpRemove Op = 2
	// OpInsert is the index-only Live.Insert compatibility path. The
	// record carries the object (fetched from the dataset at append
	// time) so replay can restore it even if the snapshot predates it.
	OpInsert Op = 3
	// OpDelete is the index-only Live.Delete compatibility path: the
	// object stays in the dataset.
	OpDelete Op = 4
	// OpSwap marks a committed Swap. The structure rebuild changes no
	// answers, so replay only advances the epoch.
	OpSwap Op = 5
	// OpSetAttrs is a Live.SetAttrsAt: the object's attribute bag
	// replaced in place. The record carries the new bag (nil clears).
	OpSetAttrs Op = 6
)

// Write is one committed write of a Live: what a running swap logs for
// replay at cutover, and what WAL recovery hands to Apply.
type Write struct {
	Op Op
	// ID is the object's identifier; an add's is chosen when it commits.
	ID int
	// Obj is the object of an OpAdd or OpInsert.
	Obj core.Object
	// Attrs is the bag of an OpAdd or OpSetAttrs (nil or empty: none),
	// or for an OpInsert a view of the dataset row (core.AttrRow).
	Attrs core.AttrSource
}

// Journal receives every committed write with the epoch it committed at,
// inside the committing write section and before the commit is
// acknowledged to the caller — the durability contract a write-ahead log
// needs. An Append error aborts the write: Live rolls the update back
// and returns the error. internal/persist.WAL is the on-disk
// implementation. attrs is the write's Attrs, valid only during the
// call.
type Journal interface {
	Append(op Op, epoch uint64, id int, obj core.Object, attrs core.AttrSource) error
}

// AddAttrsAt stores a new object with its attribute bag in the dataset
// and indexes it in one write section, returning its identifier and the
// epoch the write committed at (unlike a separate Epoch() call, it
// cannot include later writers' commits). The bag becomes visible to
// filtered searches in the same epoch as the object; a nil bag is an
// object with no attributes (matches no predicate).
func (l *Live) AddAttrsAt(o core.Object, a core.Attrs) (int, uint64, error) {
	if o == nil {
		return 0, 0, fmt.Errorf("epoch: add of nil object")
	}
	return l.commit(Write{Op: OpAdd, Obj: o, Attrs: a})
}

// RemoveAt deletes the object from the index and the dataset in one
// write section and reports the epoch the write committed at.
func (l *Live) RemoveAt(id int) (uint64, error) {
	_, ep, err := l.commit(Write{Op: OpRemove, ID: id})
	return ep, err
}

// SetAttrsAt replaces the attribute bag of a live object in one write
// section, keeping the estimator exact, and reports the epoch the
// write committed at. The object itself is untouched; the epoch still
// advances, so cached filtered answers from before the change cannot
// be served after it.
func (l *Live) SetAttrsAt(id int, a core.Attrs) (uint64, error) {
	_, ep, err := l.commit(Write{Op: OpSetAttrs, ID: id, Attrs: a})
	return ep, err
}

// Insert implements core.Index for callers that manage the dataset
// themselves (the object must already be stored under id). AddAttrsAt
// is the fully synchronized path: a direct dataset mutation is not
// covered by the write section and must itself not race with in-flight
// searches.
func (l *Live) Insert(id int) error {
	_, _, err := l.commit(Write{Op: OpInsert, ID: id})
	return err
}

// Delete implements core.Index for callers that manage the dataset
// themselves: it removes the object from the index only (per the Index
// contract the object stays in the dataset until the caller deletes it).
// RemoveAt is the fully synchronized path.
func (l *Live) Delete(id int) error {
	_, _, err := l.commit(Write{Op: OpDelete, ID: id})
	return err
}

// commit runs one write section: it stages w on the index (an add also
// on the dataset), journals it at the next epoch — a failed append
// unstages it — then finishes it on the dataset and the estimator, logs
// it for a running swap and bumps the epoch. It returns the write's id
// and the epoch it committed at (the current epoch on error).
func (l *Live) commit(w Write) (int, uint64, error) {
	waitStart := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeWait(time.Since(waitStart))
	switch w.Op {
	case OpAdd:
		w.ID = l.ds.Insert(w.Obj)
	case OpInsert:
		if w.Obj = l.ds.Object(w.ID); w.Obj == nil {
			return 0, l.epoch, fmt.Errorf("epoch: insert of deleted or unknown object %d", w.ID)
		}
		// A view, not a copy: a swap's replay at cutover, still inside
		// a write section, copies the row as later writes left it,
		// which is what replaying them in order reaches anyway.
		w.Attrs = l.ds.AttrRow(w.ID)
	case OpSetAttrs:
		if !l.ds.Live(w.ID) {
			return 0, l.epoch, fmt.Errorf("epoch: attrs on non-live id %d", w.ID)
		}
		// With the check above, every way a set can fail: it is checked
		// before the append, so finish cannot fail after it.
		if err := core.ValidateAttrs(w.Attrs); err != nil {
			return 0, l.epoch, err
		}
	}
	if err := stage(l.ds, l.idx, w); err != nil {
		return 0, l.epoch, err
	}
	if l.journal != nil {
		if err := l.journal.Append(w.Op, l.epoch+1, w.ID, w.Obj, w.Attrs); err != nil {
			unstage(l.ds, l.idx, w)
			return 0, l.epoch, fmt.Errorf("epoch: journal append: %w", err)
		}
	}
	if err := finish(l.ds, l.stats, w); err != nil {
		return 0, l.epoch, err
	}
	if l.swapping {
		l.log = append(l.log, w)
	}
	l.epoch++
	return w.ID, l.epoch, nil
}

// stage makes w's change on the index. An add's object must already be
// stored at w.ID: stage gives it its bag first, and deletes it again if
// either step fails, so a failed stage leaves nothing behind.
func stage(ds *core.Dataset, idx core.Index, w Write) error {
	var err error
	switch w.Op {
	case OpAdd:
		if w.Attrs != nil && w.Attrs.AttrLen() > 0 {
			err = ds.SetAttrs(w.ID, w.Attrs)
		}
		if err == nil {
			err = idx.Insert(w.ID)
		}
		if err != nil {
			_ = ds.Delete(w.ID)
		}
	case OpInsert:
		err = idx.Insert(w.ID)
	case OpRemove, OpDelete:
		err = idx.Delete(w.ID)
	case OpSetAttrs, OpSwap:
	default:
		err = fmt.Errorf("epoch: unknown journal op %d", w.Op)
	}
	return err
}

// unstage undoes a staged write whose journal append failed.
func unstage(ds *core.Dataset, idx core.Index, w Write) {
	switch w.Op {
	case OpAdd:
		_ = idx.Delete(w.ID)
		_ = ds.Delete(w.ID)
	case OpInsert:
		_ = idx.Delete(w.ID)
	case OpRemove, OpDelete:
		if ds.Object(w.ID) != nil {
			_ = idx.Insert(w.ID)
		}
	}
}

// finish completes a staged write on the dataset and on the estimator
// st, which counts the rows the index holds: a remove deletes the row,
// a set replaces its bag. Dataset.Delete and SetAttrs change nothing
// when they fail, so the estimator re-observes the same row then.
func finish(ds *core.Dataset, st *plan.Stats, w Write) error {
	var err error
	switch w.Op {
	case OpAdd, OpInsert:
		st.ObserveRow(ds, w.ID)
	case OpDelete:
		st.RemoveRow(ds, w.ID)
	case OpRemove:
		st.RemoveRow(ds, w.ID)
		if err = ds.Delete(w.ID); err != nil {
			st.ObserveRow(ds, w.ID)
		}
	case OpSetAttrs:
		st.RemoveRow(ds, w.ID)
		err = ds.SetAttrs(w.ID, w.Attrs)
		st.ObserveRow(ds, w.ID)
	}
	return err
}

// redo applies a committed write again, onto ds, idx and the estimator
// st. An add stores its object under its recorded id; so does an
// insert whose object ds lacks (the snapshot predates it), which makes
// it an add.
func redo(ds *core.Dataset, idx core.Index, st *plan.Stats, w Write) error {
	if w.Op == OpInsert && ds.Object(w.ID) == nil {
		w.Op = OpAdd
	}
	if w.Op == OpAdd {
		if err := ds.InsertAt(w.ID, w.Obj); err != nil {
			return err
		}
	}
	if err := stage(ds, idx, w); err != nil {
		return err
	}
	return finish(ds, st, w)
}

// Apply redoes one journaled write onto the live structure without
// journaling it again, and moves the epoch up to the one it committed
// at — the recovery path (writes must arrive in their committed order).
// An OpSwap only advances the epoch: a rebuild changes no answers.
func (l *Live) Apply(epoch uint64, w Write) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := redo(l.ds, l.idx, l.stats, w); err != nil {
		return err
	}
	if epoch > l.epoch {
		l.epoch = epoch
	}
	return nil
}

// replay redoes the writes logged while a swap built onto the
// replacement dataset and index, skipping what the replacement already
// reflects: an add or insert of an object its index holds, a remove or
// delete of one it lacks, and a set on an object its dataset lacks. The
// build indexed every object of the snapshot; from there, indexed
// follows the logged writes (an index-only delete leaves the object in
// the dataset, so the dataset alone cannot tell). The live estimator
// counted every logged write when it committed, so replay counts them
// on a scratch one.
func replay(ds *core.Dataset, idx core.Index, log []Write) error {
	scratch := plan.NewStats()
	indexed := make(map[int]bool)
	for _, w := range log {
		in, ok := indexed[w.ID]
		if !ok {
			in = ds.Object(w.ID) != nil
		}
		switch w.Op {
		case OpAdd, OpInsert:
			if in {
				continue
			}
			indexed[w.ID] = true
		case OpRemove, OpDelete:
			if !in {
				continue
			}
			indexed[w.ID] = false
		case OpSetAttrs:
			if ds.Object(w.ID) == nil {
				continue
			}
		}
		if err := redo(ds, idx, scratch, w); err != nil {
			return err
		}
	}
	return nil
}
