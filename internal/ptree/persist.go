package ptree

import (
	"fmt"
	"math"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encoding of the pivot trees (spec: docs/PERSISTENCE.md
// §FQT, §BKT, §VPT/MVPT). One codec writes the three families' payloads,
// which differ in their header fields and in what an internal node
// carries; the MVPT payload serves both the "VPT" and "MVPT" kinds.

const formatVersion = 1

// maxTreeDepth bounds node-decoding recursion so corrupt payloads cannot
// exhaust the stack.
const maxTreeDepth = 10000

// Node tags. A payload never holds tag 0 (the old encoders' nil child,
// which no tree has), so the decoder rejects it.
const (
	tagLeaf     = 1
	tagInternal = 2
)

// field is one header field of a family's payload.
type field uint8

const (
	fArity field = iota
	fLeafCapacity
	fMaxChildren
	fSeed
	fMaxDistance
	fWorkers
	fPivots // pivotIDs ints | pivotVals objects
	fWidth
)

// The payload headers, in their normative order.
var (
	bktHeader  = []field{fLeafCapacity, fMaxChildren, fSeed, fMaxDistance, fWorkers}
	fqtHeader  = []field{fLeafCapacity, fMaxChildren, fMaxDistance, fWorkers, fPivots, fWidth}
	mvptHeader = []field{fArity, fLeafCapacity, fWorkers, fPivots}
)

func init() {
	persist.Register("BKT", bkt.loadTree)
	persist.Register("FQT", fqt.loadTree)
	persist.Register("MVPT", mvpt.loadTree)
	persist.Register("VPT", mvpt.loadTree)
}

// EncodeSnapshot writes the family's payload: its header fields (the
// defaulted build options, FQT/MVPT's level pivots, FQT's bucket width),
// the object count and the tree.
func (t *Tree) EncodeSnapshot(w *store.Writer) error {
	w.U16(formatVersion)
	for _, f := range t.fam.header {
		switch f {
		case fArity:
			w.U32(uint32(t.opts.Arity))
		case fLeafCapacity:
			w.U32(uint32(t.opts.LeafCapacity))
		case fMaxChildren:
			w.U32(uint32(t.opts.MaxChildren))
		case fSeed:
			w.I64(t.opts.Seed)
		case fMaxDistance:
			w.F64(t.opts.MaxDistance)
		case fWorkers:
			w.I64(int64(t.opts.Workers))
		case fPivots:
			w.Pivots(t.pivotIDs, t.pivots)
		case fWidth:
			w.F64(t.width)
		}
	}
	w.U32(uint32(t.size))
	t.encodeNode(w, t.root)
	return nil
}

// encodeNode writes a leaf's ids, or an internal node: BKT's pivot (id,
// value, live flag, bucket width), MVPT's band bounds, then the children
// — each behind its bucket key for BKT/FQT, keys ascending.
func (t *Tree) encodeNode(w *store.Writer, n *node) {
	if n.leaf() {
		w.U8(tagLeaf)
		w.Int32s(n.ids)
		return
	}
	w.U8(tagInternal)
	if t.fam.ownPivot {
		w.U32(uint32(n.pivotID))
		w.Object(n.pivot)
		w.Bool(n.pivotLive)
		w.F64(t.width)
	}
	if t.fam.bands {
		lo := make([]float64, len(n.children))
		hi := make([]float64, len(n.children))
		for i, c := range n.children {
			lo[i], hi[i] = c.lo, c.hi
		}
		w.Floats(lo)
		w.Floats(hi)
	}
	w.U32(uint32(len(n.children)))
	for _, c := range n.children {
		if !t.fam.bands {
			w.U32(uint32(int(math.Round(c.lo / t.width))))
		}
		t.encodeNode(w, c.n)
	}
}

// loadTree restores a tree of family f. Besides the shape checks it
// rejects what would fail the first query or update of a CRC-valid but
// crafted payload: a header that sizes no bucket or band, pivot values
// the dataset's metric cannot compare, and every node-level defect
// decodeNode names.
func (f *family) loadTree(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != formatVersion {
		return nil, nil, fmt.Errorf("%s: unsupported payload version %d", f.tag(), v)
	}
	t := &Tree{ds: ds, fam: f}
	for _, fl := range f.header {
		switch fl {
		case fArity:
			t.opts.Arity = int(r.U32())
		case fLeafCapacity:
			t.opts.LeafCapacity = int(r.U32())
		case fMaxChildren:
			t.opts.MaxChildren = int(r.U32())
		case fSeed:
			t.opts.Seed = r.I64()
		case fMaxDistance:
			t.opts.MaxDistance = r.F64()
		case fWorkers:
			t.opts.Workers = int(r.I64())
		case fPivots:
			t.pivotIDs, t.pivots = r.Pivots(ds.Sample())
		case fWidth:
			t.width = r.F64()
		}
	}
	t.size = int(r.U32())
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if err := t.checkHeader(); err != nil {
		return nil, nil, err
	}
	root, err := t.decodeNode(r, ds.Sample(), 0)
	if err != nil {
		return nil, nil, err
	}
	t.root = root
	t.tokens = core.NewTokenPool(t.opts.Workers)
	return t, nil, nil
}

// checkHeader validates the decoded header (Reader.Pivots has already
// checked the pivots' count and kind) and derives BKT's width.
func (t *Tree) checkHeader() error {
	f := t.fam
	if f.ownPivot {
		t.width = bucketWidth(t.opts.MaxDistance, t.opts.MaxChildren)
	} else {
		for _, id := range t.pivotIDs {
			if err := t.checkID("pivot", id); err != nil {
				return err
			}
		}
	}
	if t.opts.LeafCapacity < 1 {
		return fmt.Errorf("%s: leaf capacity %d below 1", f.tag(), t.opts.LeafCapacity)
	}
	if f.bands && t.opts.Arity < 2 {
		return fmt.Errorf("%s: arity %d below 2", f.tag(), t.opts.Arity)
	}
	if !f.bands && !(t.width > 0 && t.width < math.Inf(1)) {
		return fmt.Errorf("%s: bucket width %v is not positive and finite", f.tag(), t.width)
	}
	return nil
}

// checkID reports an identifier naming no slot of the dataset, or, for a
// leaf id, a deleted slot.
func (t *Tree) checkID(what string, id int) error {
	if id < 0 || id >= t.ds.Len() {
		return fmt.Errorf("%s: %s id %d outside [0, %d)", t.fam.tag(), what, id, t.ds.Len())
	}
	if what == "leaf" && t.ds.Object(id) == nil {
		return fmt.Errorf("%s: leaf id %d names a deleted object", t.fam.tag(), id)
	}
	return nil
}

// decodeNode reads one node. It rejects tag 0 and unknown tags, leaf ids
// outside the dataset or on deleted slots, BKT pivot ids outside the
// dataset and pivot values of another kind, a BKT width other than the
// tree's, internal nodes without children, bucket keys that do not
// strictly ascend, and bands whose lo > hi or that hold NaN.
func (t *Tree) decodeNode(r *store.Reader, ref core.Object, depth int) (*node, error) {
	tag := t.fam.tag()
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("%s: tree deeper than %d", tag, maxTreeDepth)
	}
	switch kind := r.U8(); kind {
	case tagLeaf:
		n := &node{ids: r.Int32s()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		for _, id := range n.ids {
			if err := t.checkID("leaf", int(id)); err != nil {
				return nil, err
			}
		}
		return n, nil
	case tagInternal:
		n := &node{}
		if t.fam.ownPivot {
			n.pivotID = int32(r.U32())
			n.pivot = r.Object()
			n.pivotLive = r.Bool()
			width := r.F64()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if err := t.checkID("pivot", int(n.pivotID)); err != nil {
				return nil, err
			}
			if n.pivot == nil || !core.SameKind(ref, n.pivot) {
				return nil, fmt.Errorf("%s: node pivot %d is not an object of the dataset's kind", tag, n.pivotID)
			}
			if width != t.width {
				return nil, fmt.Errorf("%s: node bucket width %v, tree's is %v", tag, width, t.width)
			}
		}
		var lo, hi []float64
		if t.fam.bands {
			lo = r.Floats()
			hi = r.Floats()
		}
		cnt := r.Count(1) // at least a tag byte per child
		if err := r.Err(); err != nil {
			return nil, err
		}
		if cnt == 0 || t.fam.bands && (len(lo) != cnt || len(hi) != cnt) {
			return nil, fmt.Errorf("%s: internal node with %d children, %d/%d bands", tag, cnt, len(lo), len(hi))
		}
		n.children = make([]child, cnt)
		var prev uint32
		var err error
		for i := range n.children {
			c := &n.children[i]
			if t.fam.bands {
				if !(lo[i] <= hi[i]) {
					return nil, fmt.Errorf("%s: band [%v, %v]", tag, lo[i], hi[i])
				}
				c.lo, c.hi = lo[i], hi[i]
			} else {
				key := r.U32()
				if i > 0 && key <= prev {
					return nil, fmt.Errorf("%s: bucket key %d after %d", tag, key, prev)
				}
				prev = key
				c.lo = float64(key) * t.width
				c.hi = c.lo + t.width
			}
			if c.n, err = t.decodeNode(r, ref, depth+1); err != nil {
				return nil, err
			}
		}
		return n, r.Err()
	default:
		return nil, fmt.Errorf("%s: unknown node tag %d", tag, kind)
	}
}
