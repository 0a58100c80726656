// Package spb is the keyed B+-tree engine behind the SPB-tree of [12]
// (§5.4) and the M-index and M-index* of [23] (§5.3). All three map an
// object's pivot distances to one uint64 key in a B+-tree, keep the
// object in a RAF, turn a query into key intervals, and apply Lemma 1 to
// what a key says before a record is read and a distance computed.
//
// What differs between them is data, a family: its key map and its
// interval source. The SPB-tree (grid.go) keys an object by the Hilbert
// value of its grid cell and descends the B+-tree on the MBB corners its
// non-leaf entries carry; the M-indexes (cluster.go) key it by its
// cluster's slot ⊕ d(o, p_c) and find the key bands of the clusters that
// survive Lemma 3 (and, for M-index*, their MBB). The engine owns the
// rest: the RAF record codec, the band scan, the best-first kNN loop,
// the pooled per-query scratch, Insert/Delete and the snapshot codec
// (persist.go).
package spb

import (
	"fmt"
	"sort"
	"sync"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/sfc"
	"metricindex/internal/store"
)

// Options tunes an SPB-tree build.
type Options struct {
	// MaxDistance is d⁺, the discretization range. Required.
	MaxDistance float64
	// Bits per dimension (0 = as many as fit: min(16, 62/len(pivots))).
	Bits int
}

// Index is one keyed B+-tree index: an SPB-tree, M-index or M-index*.
type Index struct {
	kind string
	// word is the family's header word in the snapshot payload: the
	// grid's bit width, or the cluster split threshold.
	word uint32
	// stored: a RAF record carries the object's l pivot distances before
	// the object (the M-indexes), read back for Lemma 1 and Lemma 4.
	stored bool
	// validate: a range query admits a record on Lemma 4 over its stored
	// distances without computing its distance (M-index*).
	validate  bool
	fam       family
	ds        *core.Dataset
	pager     *store.Pager
	maxDist   float64 // d⁺
	pivotIDs  []int
	pivotVals []core.Object
	tree      *bptree.Tree
	raf       *store.RAF
	pool      sync.Pool // *scratch
}

// family is what one keyed kind supplies to the engine: its key map
// (insert, remove), the test a key passes before its record is read,
// and its interval source (ranges for a range query, seed and expand for
// the best-first kNN loop).
type family interface {
	prepare(sc *scratch)
	insert(s *Index, id int, dv []float64) error
	remove(s *Index, id int, dv []float64) error
	// keys is the key half of the band scan over leaf n: Lemma 1 — and
	// Lemma 4, where a key allows it — on what each key in [lo, hi] says
	// at radius r, before any record is read. It queues the records to
	// read — in a kNN on sc.lazy under the key's lower bound of d(q, o)
	// and the record's position in the leaf, otherwise on sc.cands — and
	// appends the records admitted unread to sc.ids; it reports whether
	// the band goes on in the next leaf.
	keys(sc *scratch, n bptree.View, lo, hi uint64, r float64) bool
	ranges(s *Index, sc *scratch, q core.Object, r float64) error
	seed(s *Index, sc *scratch)
	expand(s *Index, sc *scratch, q core.Object, it core.Ranked[uint32]) error
	knn(s *Index, sc *scratch, q core.Object, k int) error
	memBytes() int64
	// section writes the family's own state after the handle's (see
	// docs/PERSISTENCE.md).
	section(w *store.Writer)
}

// scratch is the working memory of one query, pooled per index so a
// steady-state query allocates only its answer.
type scratch struct {
	qd    []float64 // d(q, p_i)
	cur   sfc.Cursor
	nodes core.MinHeap[uint32] // kNN: best-first queue
	lazy  core.MinHeap[int]    // kNN: one leaf's records to read, by bound
	cands []int                // range: one leaf's records to read
	stack []store.PageID       // SPB-tree range: depth-first stack
	ids   []int                // range: result ids
	heap  core.KNNHeap
	rec   []byte      // RAF record
	dv    []float64   // its stored distances
	vec   core.Vector // its object, when a Vector
	obj   core.Object // vec boxed once, not per record
	// The query's mode: a range query at r; a best-first kNN (knn); or a
	// growing-radius kNN round at r (seen is non-nil and holds the ids an
	// earlier round verified).
	r    float64
	knn  bool
	seen map[int]bool
	// forward is set while a kNN scans keys whose lower bounds only grow
	// (an M-index band above d(q, p_c)): the first key out ends the band.
	forward bool
	band    band
}

func (s *Index) getScratch() *scratch {
	if sc, ok := s.pool.Get().(*scratch); ok {
		return sc
	}
	sc := &scratch{}
	s.fam.prepare(sc)
	return sc
}

// newIndex completes s, which names its kind, family, dataset, pager
// and d⁺, with the parts every family shares.
func newIndex(s *Index, pivots []int, aug bptree.Augmenter) (*Index, error) {
	if !(s.maxDist > 0) {
		return nil, fmt.Errorf("spb: MaxDistance (d+) must be positive")
	}
	s.pivotIDs = append([]int(nil), pivots...)
	for _, p := range pivots {
		v := s.ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("spb: pivot %d is not a live object", p)
		}
		s.pivotVals = append(s.pivotVals, v)
	}
	s.raf = store.NewRAF(s.pager)
	s.tree = bptree.New(s.pager, aug)
	return s, nil
}

// Name returns the kind: "SPB-tree", "M-index" or "M-index*".
func (s *Index) Name() string { return s.kind }

// Len returns the number of indexed objects.
func (s *Index) Len() int { return s.tree.Len() }

// distances computes d(o, p_i) for every pivot into dv.
func (s *Index) distances(dv []float64, o core.Object) []float64 {
	sp := s.ds.Space()
	dv = dv[:0]
	for _, p := range s.pivotVals {
		dv = append(dv, sp.Distance(o, p))
	}
	return dv
}

// encode appends the RAF record of o: its pivot distances dv when the
// family stores them, then the object.
func (s *Index) encode(buf []byte, dv []float64, o core.Object) []byte {
	if s.stored {
		buf = store.EncodeFloats(buf, dv)
	}
	return store.EncodeObject(buf, o)
}

// load reads record id into the scratch: its stored distances (none
// unless the family stores them) and its object. Both stay valid until
// the next load into the same scratch.
func (s *Index) load(sc *scratch, id int) ([]float64, core.Object, error) {
	buf, err := s.raf.ReadInto(id, sc.rec)
	if err != nil {
		return nil, nil, err
	}
	sc.rec = buf
	if s.stored {
		var n int
		if sc.dv, n, err = store.DecodeFloats(sc.dv, buf, len(s.pivotVals)); err != nil {
			return nil, nil, err
		}
		buf = buf[n:]
	}
	if v, ok := store.DecodeVectorInto(sc.vec, buf); ok {
		if sc.obj == nil || len(v) != len(sc.vec) {
			sc.vec, sc.obj = v, v
		}
		return sc.dv, sc.obj, nil
	}
	o, _, err := store.DecodeObject(buf)
	return sc.dv, o, err
}

// scan is the band scan of one leaf: it decides the records of leaf n
// keyed in [lo, hi] and reports whether the band goes on in the next
// leaf. Every key first passes the family's key test (keys) — at a
// range query's radius, or at a kNN's radius on entering the leaf — and
// only the survivors' records are read. A kNN pops its survivors from
// sc.lazy in (lower bound, leaf position) order, each within the
// then-current radius: the first bound past it ends the leaf, so the
// survivors it leaves are never ordered. A read record is tested on its
// stored distances (Lemma 1, and Lemma 4 in a validating range query)
// before its distance is computed.
func (s *Index) scan(sc *scratch, q core.Object, n bptree.View, lo, hi uint64) (bool, error) {
	if !sc.knn {
		sc.cands = sc.cands[:0]
		more := s.fam.keys(sc, n, lo, hi, sc.r)
		for _, id := range sc.cands {
			if err := s.verify(sc, q, id, sc.r); err != nil {
				return false, err
			}
		}
		return more, nil
	}
	sc.lazy.Reset()
	more := s.fam.keys(sc, n, lo, hi, sc.heap.Radius())
	for it, ok := sc.lazy.PopWithin(sc.heap.Radius()); ok; it, ok = sc.lazy.PopWithin(sc.heap.Radius()) {
		if err := s.verify(sc, q, it.V, sc.heap.Radius()); err != nil {
			return false, err
		}
	}
	if sc.lazy.Len() > 0 {
		more = more && !sc.forward
	}
	return more, nil
}

// verify reads record id and decides it at radius r: pruned or admitted
// on its stored distances, else by its distance — pushed on the kNN heap
// in a kNN or a growing-radius round, admitted within r in a range
// query.
func (s *Index) verify(sc *scratch, q core.Object, id int, r float64) error {
	dv, o, err := s.load(sc, id)
	switch {
	case err != nil:
		return err
	case s.stored && core.PruneObject(sc.qd, dv, r):
	case s.validate && !sc.knn && core.ValidateObject(sc.qd, dv, r):
		sc.ids = append(sc.ids, id)
	case sc.knn || sc.seen != nil:
		if sc.seen != nil {
			sc.seen[id] = true
		}
		sc.heap.Push(id, s.ds.Space().Distance(q, o))
	case s.ds.Space().Distance(q, o) <= r:
		sc.ids = append(sc.ids, id)
	}
	return nil
}

// scanBand runs the band scan over the keys in [lo, hi], leaf by leaf
// along the leaf chain.
func (s *Index) scanBand(sc *scratch, q core.Object, lo, hi uint64) error {
	_, n, err := s.tree.LeafFor(lo)
	for err == nil {
		var more bool
		if more, err = s.scan(sc, q, n, lo, hi); err != nil || !more || n.Next() == store.InvalidPage {
			break
		}
		n, err = s.tree.View(n.Next())
	}
	return err
}

// RangeSearch answers MRQ(q, r): the family turns the query into key
// intervals, and the band scan decides their records.
func (s *Index) RangeSearch(q core.Object, r float64) ([]int, error) {
	sc := s.getScratch()
	defer s.pool.Put(sc)
	sc.qd = s.distances(sc.qd, q)
	sc.r, sc.knn, sc.seen, sc.forward = r, false, nil, false
	sc.ids = sc.ids[:0]
	if err := s.fam.ranges(s, sc, q, r); err != nil {
		return nil, err
	}
	res := append([]int(nil), sc.ids...)
	sort.Ints(res)
	return res, nil
}

// KNNSearch answers MkNNQ(q, k) by the family's kNN rule: best first
// (bestFirst) but for the plain M-index's growing radius.
func (s *Index) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sc := s.getScratch()
	defer s.pool.Put(sc)
	sc.qd = s.distances(sc.qd, q)
	sc.heap.Reset(k)
	if err := s.fam.knn(s, sc, q, k); err != nil {
		return nil, err
	}
	return sc.heap.Result(), nil
}

// bestFirst is the best-first kNN loop: the family seeds the queue with
// its intervals under their lower bounds and expands what pops within
// the shrinking radius, until nothing does.
func (s *Index) bestFirst(sc *scratch, q core.Object) error {
	sc.knn, sc.seen, sc.forward = true, nil, false
	sc.nodes.Reset()
	s.fam.seed(s, sc)
	for it, ok := sc.nodes.PopWithin(sc.heap.Radius()); ok; it, ok = sc.nodes.PopWithin(sc.heap.Radius()) {
		if err := s.fam.expand(s, sc, q, it); err != nil {
			return err
		}
	}
	return nil
}

// Insert stores the object's RAF record and keys it into the B+-tree.
func (s *Index) Insert(id int) error {
	o := s.ds.Object(id)
	if o == nil {
		return fmt.Errorf("spb: insert of deleted object %d", id)
	}
	dv := s.distances(nil, o)
	if _, err := s.raf.Append(id, s.encode(nil, dv, o)); err != nil {
		return err
	}
	return s.fam.insert(s, id, dv)
}

// Delete removes the object's key and its RAF record. Its pivot
// distances come from its record where the family stores them, and are
// recomputed otherwise.
func (s *Index) Delete(id int) error {
	o := s.ds.Object(id)
	if o == nil {
		return fmt.Errorf("spb: delete needs the object still present in the dataset (id %d)", id)
	}
	var dv []float64
	if s.stored {
		sc := s.getScratch()
		defer s.pool.Put(sc)
		var err error
		if dv, _, err = s.load(sc, id); err != nil {
			return fmt.Errorf("spb: delete of unindexed object %d: %w", id, err)
		}
	} else {
		dv = s.distances(nil, o)
	}
	if err := s.fam.remove(s, id, dv); err != nil {
		return err
	}
	return s.raf.Delete(id)
}

// PageAccesses reports the pager's accesses (B+-tree + RAF).
func (s *Index) PageAccesses() int64 { return s.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (s *Index) ResetStats() { s.pager.ResetStats() }

// MemBytes reports what the index keeps in memory beside its pages: the
// pivots, the RAF's id directory and the family's own tables.
func (s *Index) MemBytes() int64 {
	return int64(len(s.pivotVals))*64 + s.raf.MemBytes() + s.fam.memBytes()
}

// DiskBytes reports the B+-tree + RAF footprint.
func (s *Index) DiskBytes() int64 { return s.pager.DiskBytes() }
