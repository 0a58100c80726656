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
	// OpInsert and OpDelete are read-only legacy ops: older builds
	// journaled index-only writes under them. The WAL still decodes
	// them, and redo redoes them as OpAdd and OpRemove; nothing writes
	// them any more.
	OpInsert Op = 3
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
	// Obj is the object of an OpAdd.
	Obj core.Object
	// Attrs is the bag of an OpAdd or OpSetAttrs (nil or empty: none).
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
	if err := finish(l.ds, l.idx, l.stats, w); err != nil {
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
	case OpRemove:
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
	case OpRemove:
		if ds.Object(w.ID) != nil {
			_ = idx.Insert(w.ID)
		}
	}
}

// attrRefresher is the optional method of an index that keeps a copy
// of the dataset's attribute cells (core.AttrRows, a pivot table's):
// after Dataset.SetAttrs on an indexed object, RefreshAttrs copies the
// object's new cells. A write that skips it leaves the copy out of
// step, and the index falls back to the dataset's own columns.
type attrRefresher interface {
	RefreshAttrs(id int)
}

// finish completes a staged write on the dataset, on the estimator st,
// which counts the rows the index holds, and on an index that copies
// attribute cells (attrRefresher): a remove deletes the row, a set
// replaces its bag. Dataset.Delete and SetAttrs change nothing when
// they fail, so the estimator re-observes the same row then.
func finish(ds *core.Dataset, idx core.Index, st *plan.Stats, w Write) error {
	var err error
	switch w.Op {
	case OpAdd:
		st.ObserveRow(ds, w.ID)
	case OpRemove:
		st.RemoveRow(ds, w.ID)
		if err = ds.Delete(w.ID); err != nil {
			st.ObserveRow(ds, w.ID)
		}
	case OpSetAttrs:
		st.RemoveRow(ds, w.ID)
		err = ds.SetAttrs(w.ID, w.Attrs)
		st.ObserveRow(ds, w.ID)
		if r, ok := idx.(attrRefresher); ok && err == nil {
			r.RefreshAttrs(w.ID)
		}
	}
	return err
}

// redo applies a committed write again, onto ds, idx and the estimator
// st. An add stores its object under its recorded id. A legacy
// index-only record is redone as its dataset-managed counterpart: an
// OpInsert (which carries its object and bag) as an add, an OpDelete as
// a remove.
func redo(ds *core.Dataset, idx core.Index, st *plan.Stats, w Write) error {
	switch w.Op {
	case OpInsert:
		w.Op = OpAdd
	case OpDelete:
		w.Op = OpRemove
	}
	if w.Op == OpAdd {
		if err := ds.InsertAt(w.ID, w.Obj); err != nil {
			return err
		}
	}
	if err := stage(ds, idx, w); err != nil {
		return err
	}
	return finish(ds, idx, st, w)
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
// replacement dataset and index, skipping exactly what the replacement's
// dataset already reflects: an add of an object it holds, a remove or a
// set of one it lacks. The build indexed every object of the dataset,
// and every write changes both together, so the dataset alone tells.
// The live estimator counted every logged write when it committed, so
// replay counts them on a scratch one.
func replay(ds *core.Dataset, idx core.Index, log []Write) error {
	scratch := plan.NewStats()
	for _, w := range log {
		if (ds.Object(w.ID) != nil) == (w.Op == OpAdd) {
			continue
		}
		if err := redo(ds, idx, scratch, w); err != nil {
			return err
		}
	}
	return nil
}
