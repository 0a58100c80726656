package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Space is a metric space (M, d) instrumented with a distance-computation
// counter. Every index performs its distance computations through a Space
// so that the "compdists" performance metric of the paper is counted
// identically for all competitors. Space is safe for concurrent use.
type Space struct {
	metric Metric
	count  atomic.Int64
}

// NewSpace wraps a metric into an instrumented space.
func NewSpace(m Metric) *Space {
	return &Space{metric: m}
}

// Distance computes d(a, b) and increments the computation counter.
func (s *Space) Distance(a, b Object) float64 {
	s.count.Add(1)
	return s.metric.Distance(a, b)
}

// DistanceMany computes out[i] = d(q, objs[i]) for every i, through the
// metric's batch kernel when it provides one and pairwise Distance
// otherwise. Results are bit-for-bit identical to the scalar calls. The
// compdists counter advances by len(objs) in a single atomic add — the
// batch path's accounting amortization.
//
//metriclint:noalloc
func (s *Space) DistanceMany(q Object, objs []Object, out []float64) {
	if len(objs) == 0 {
		return
	}
	s.count.Add(int64(len(objs)))
	s.distances(q, objs, out)
}

// distances is DistanceMany without the count, for a caller that books
// many batches with one CountDistances: parallel builders, whose workers
// would otherwise contend for the counter's cache line on every row.
//
//metriclint:noalloc
func (s *Space) distances(q Object, objs []Object, out []float64) {
	if bm, ok := s.metric.(BatchMetric); ok {
		bm.DistanceMany(q, objs, out)
		return
	}
	for i, o := range objs {
		out[i] = s.metric.Distance(q, o)
	}
}

// CountDistances adds n to the compdists counter. Index hot loops that
// compute distances through the flat kernels (bypassing Distance) call
// it once per scan so the paper's cost measure stays exact without an
// atomic per pair.
//
//metriclint:noalloc
func (s *Space) CountDistances(n int) {
	if n > 0 {
		s.count.Add(int64(n))
	}
}

// Metric returns the underlying metric.
func (s *Space) Metric() Metric { return s.metric }

// CompDists returns the number of distance computations since the last
// ResetCompDists.
func (s *Space) CompDists() int64 { return s.count.Load() }

// ResetCompDists zeroes the distance-computation counter.
func (s *Space) ResetCompDists() { s.count.Store(0) }

// Dataset is an object collection in a metric space. Objects are addressed
// by dense integer identifiers (their position in Objects). Deleted
// positions hold a nil Object and are skipped by queries; Insert reuses the
// lowest free slot so that identifiers stay stable and compact.
type Dataset struct {
	space   *Space
	objects []Object
	free    []int // stack of deleted slots available for reuse
	live    int   // number of non-nil objects
	// attrs holds the attribute fields of every slot, column-wise
	// (columns.go). Deleted slots carry none.
	attrs AttrStore
}

// NewDataset builds a dataset over the given objects. The slice is owned by
// the dataset afterwards. Nil entries are treated as empty slots (as if the
// object at that identifier had been deleted), which is how sharded mirrors
// hold a subset of a parent dataset under unchanged identifiers.
func NewDataset(space *Space, objects []Object) *Dataset {
	ds := &Dataset{space: space, objects: objects}
	for id, o := range objects {
		if o == nil {
			ds.free = append(ds.free, id)
		} else {
			ds.live++
		}
	}
	return ds
}

// Space returns the instrumented metric space of the dataset.
func (ds *Dataset) Space() *Space { return ds.space }

// Len returns the number of identifier slots (including deleted ones);
// valid identifiers are 0..Len()-1.
func (ds *Dataset) Len() int { return len(ds.objects) }

// Count returns the number of live (non-deleted) objects.
func (ds *Dataset) Count() int { return ds.live }

// Object returns the object with the given identifier, or nil if the
// identifier is out of range or the object was deleted.
func (ds *Dataset) Object(id int) Object {
	if id < 0 || id >= len(ds.objects) {
		return nil
	}
	return ds.objects[id]
}

// Sample returns the first stored object, or nil when there is none: the
// reference SameKind checks a decoded object against.
func (ds *Dataset) Sample() Object {
	for _, o := range ds.objects {
		if o != nil {
			return o
		}
	}
	return nil
}

// SameKind reports whether one metric can measure o against ref, a
// stored object of the dataset: the same type and, for vectors, the same
// dimensionality. A nil ref (an empty dataset) accepts anything.
func SameKind(ref, o Object) bool {
	a, b := reflect.ValueOf(ref), reflect.ValueOf(o)
	return ref == nil || b.IsValid() && a.Type() == b.Type() && (a.Kind() != reflect.Slice || a.Len() == b.Len())
}

// Objects exposes the raw object slice as a read-only view: callers must
// not mutate the slice or the objects behind it (indexes and their flat
// coordinate mirrors alias both). Returning the live slice instead of a
// copy is deliberate — the brute-force baselines and batch verifiers scan
// it on every query. For a safe bulk copy of vector coordinates use
// FlatVectors.
//
//metriclint:ignore read-only view by contract, not a defensive copy
func (ds *Dataset) Objects() []Object { return ds.objects }

// FlatVectors returns a fresh row-major copy of the float64 coordinates
// of every identifier slot: a block of Len()*dim floats where row id
// starts at id*dim. Deleted slots are zero-filled. It is the sanctioned
// bulk accessor for feeding DistanceFlat and the kernel benchmarks. The
// third result is false when the dataset holds no live objects or any
// live object is not a Vector (or IntVector, which widens exactly) of
// one common dimension.
func (ds *Dataset) FlatVectors() ([]float64, int, bool) {
	dim := -1
	for _, o := range ds.objects {
		var d int
		switch v := o.(type) {
		case nil:
			continue
		case Vector:
			d = len(v)
		case IntVector:
			d = len(v)
		default:
			return nil, 0, false
		}
		if dim == -1 {
			dim = d
		} else if d != dim {
			return nil, 0, false
		}
	}
	if dim <= 0 {
		return nil, 0, false
	}
	flat := make([]float64, len(ds.objects)*dim)
	for id, o := range ds.objects {
		row := flat[id*dim : (id+1)*dim]
		switch v := o.(type) {
		case Vector:
			copy(row, v)
		case IntVector:
			for i, x := range v {
				row[i] = float64(x)
			}
		}
	}
	return flat, dim, true
}

// Distance computes the counted distance between two stored objects.
func (ds *Dataset) Distance(i, j int) float64 {
	return ds.space.Distance(ds.objects[i], ds.objects[j])
}

// DistanceTo computes the counted distance between a query object and a
// stored object.
func (ds *Dataset) DistanceTo(q Object, id int) float64 {
	return ds.space.Distance(q, ds.objects[id])
}

// Insert adds an object, reusing a free slot when one exists, and returns
// its identifier. Entries on the free stack are validated lazily — InsertAt
// may have occupied a slot without unlinking it — so occupied entries are
// skipped and discarded here.
func (ds *Dataset) Insert(o Object) int {
	if o == nil {
		panic("core: inserting nil object")
	}
	ds.live++
	for n := len(ds.free); n > 0; n = len(ds.free) {
		id := ds.free[n-1]
		ds.free = ds.free[:n-1]
		if ds.objects[id] != nil {
			continue // stale: slot was taken by InsertAt
		}
		ds.objects[id] = o
		return id
	}
	ds.objects = append(ds.objects, o)
	return len(ds.objects) - 1
}

// InsertAt stores an object under a caller-chosen identifier, growing the
// dataset with empty slots as needed. It errors if the slot is occupied.
// Sharded mirrors use it to keep shard-local identifiers equal to the
// parent dataset's, so shard answers need no id translation.
func (ds *Dataset) InsertAt(id int, o Object) error {
	if o == nil {
		return fmt.Errorf("core: inserting nil object at id %d", id)
	}
	if id < 0 {
		return fmt.Errorf("core: insert at negative id %d", id)
	}
	for len(ds.objects) <= id {
		ds.free = append(ds.free, len(ds.objects))
		ds.objects = append(ds.objects, nil)
	}
	if ds.objects[id] != nil {
		return fmt.Errorf("core: insert at occupied id %d", id)
	}
	// The slot's free-stack entry is left in place; Insert skips entries
	// whose slot turns out occupied. Unlinking here would cost a scan of
	// the whole stack per call (sharded mirrors keep every non-member slot
	// on it).
	ds.objects[id] = o
	ds.live++
	return nil
}

// Delete removes the object with the given identifier. It returns an error
// if the identifier is out of range or already deleted.
func (ds *Dataset) Delete(id int) error {
	if id < 0 || id >= len(ds.objects) {
		return fmt.Errorf("core: delete of invalid id %d (len %d)", id, len(ds.objects))
	}
	if ds.objects[id] == nil {
		return fmt.Errorf("core: delete of already-deleted id %d", id)
	}
	ds.objects[id] = nil
	ds.attrs.clearRow(id)
	ds.free = append(ds.free, id)
	ds.live--
	return nil
}

// SetAttrs replaces the attribute fields of a live object with those of
// a (a nil or empty source detaches them all). The dataset keeps its own
// copy. It errors on a deleted or out-of-range identifier, so attrs can
// never outlive their object, and on a source ValidateAttrs rejects; on
// error the row is unchanged.
func (ds *Dataset) SetAttrs(id int, a AttrSource) error {
	if !ds.Live(id) {
		return fmt.Errorf("core: attrs on non-live id %d", id)
	}
	return ds.attrs.setRow(id, a, cap(ds.objects))
}

// AttrRow returns a view of the attribute fields of an identifier (none
// for a deleted or out-of-range one). It allocates nothing: encoders,
// the journal and the planner's estimator read rows through it.
func (ds *Dataset) AttrRow(id int) AttrRow { return AttrRow{ds: ds, id: id} }

// AttrStore exposes the attribute columns for reading (compiled
// predicates scan them). Callers must not retain it across writes.
func (ds *Dataset) AttrStore() *AttrStore { return &ds.attrs }

// Attrs materialises the attribute fields of an identifier as a bag, or
// nil when it carries none (or the id is deleted or out of range). It is
// the reference view — Predicate.Eval over it defines what a filter
// matches — and allocates a map per call, so no query or write path uses
// it. Tag slices are shared: callers must not mutate the result.
func (ds *Dataset) Attrs(id int) Attrs {
	var a Attrs
	for k, v := range ds.AttrRow(id).AttrFields {
		if a == nil {
			a = make(Attrs)
		}
		a[k] = v
	}
	return a
}

// CopyAttrsFrom copies the attribute fields of every row of src (by
// identifier) onto this dataset, skipping ids that are not live here.
// Epoch snapshots and shard mirrors use it to carry metadata across
// dataset clones; when this dataset carries no attributes yet, the
// columns are copied wholesale.
func (ds *Dataset) CopyAttrsFrom(src *Dataset) {
	if len(ds.attrs.byName) > 0 {
		for id := range src.objects {
			if r := src.AttrRow(id); ds.Live(id) && r.AttrLen() > 0 {
				_ = ds.SetAttrs(id, r) // cannot fail: id is live and a stored row is valid
			}
		}
		return
	}
	writes := ds.attrs.writes
	ds.attrs = src.attrs.clone()
	// Every row may have changed: a copy stamped before is out of step.
	ds.attrs.writes, ds.attrs.lastWrite = writes+1, -1
	for id := range src.objects {
		if !ds.Live(id) {
			ds.attrs.clearRow(id)
		}
	}
}

// Live reports whether the identifier refers to a non-deleted object.
func (ds *Dataset) Live(id int) bool {
	return id >= 0 && id < len(ds.objects) && ds.objects[id] != nil
}

// LiveIDs returns the identifiers of all live objects in increasing order.
func (ds *Dataset) LiveIDs() []int {
	ids := make([]int, 0, ds.live)
	for id, o := range ds.objects {
		if o != nil {
			ids = append(ids, id)
		}
	}
	return ids
}
