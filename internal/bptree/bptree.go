// Package bptree implements a disk-resident B+-tree over the simulated
// page store. It is the substrate of the M-index (which keys objects by
// iDistance-style mapped values, §5.3), the SPB-tree (which keys objects
// by Hilbert SFC values and stores MBB corners in non-leaf entries, §5.4),
// and the OmniB+-tree.
//
// Keys and values are uint64. Duplicate keys are allowed. Non-leaf entries
// optionally carry a client-maintained augmentation pair (two uint64) —
// the SPB-tree stores its packed MBB corners there. Every node touch goes
// through the pager, so page-access counts are comparable across indexes.
package bptree

import (
	"encoding/binary"
	"fmt"
	"math"

	"metricindex/internal/store"
)

// Augmenter maintains the per-entry augmentation of non-leaf entries.
// Implementations must be monotone under Merge (merging can only widen),
// because deletions do not recompute augmentations — they stay
// conservative, which keeps pruning traversals correct.
type Augmenter interface {
	// Leaf returns the augmentation of a single record.
	Leaf(key, val uint64) (lo, hi uint64)
	// Merge combines two augmentations.
	Merge(lo1, hi1, lo2, hi2 uint64) (lo, hi uint64)
}

// Node is the decoded, mutable form of a B+-tree page: what Insert and
// Delete edit and write back. Read-only paths use a View instead.
type Node struct {
	Leaf bool
	// Keys holds record keys (leaf) or per-child max keys (internal).
	Keys []uint64
	// Vals holds record values (leaf only).
	Vals []uint64
	// Children holds child page ids (internal only).
	Children []store.PageID
	// AuxLo/AuxHi hold per-child augmentations (internal only).
	AuxLo, AuxHi []uint64
	// Next links leaves left-to-right.
	Next store.PageID
}

const (
	leafHeader     = 1 + 2 + 4 // kind, count, next
	internalHeader = 1 + 2
	leafEntrySize  = 16 // key + val
	intEntrySize   = 8 + 4 + 16
)

// Tree is the B+-tree handle.
type Tree struct {
	pager *store.Pager
	aug   Augmenter
	root  store.PageID
	size  int
	// capacity per node kind, derived from the page size
	leafCap, intCap int
}

// New creates an empty tree on the pager.
func New(p *store.Pager, aug Augmenter) *Tree {
	t := &Tree{
		pager:   p,
		aug:     aug,
		leafCap: (p.PageSize() - leafHeader) / leafEntrySize,
		intCap:  (p.PageSize() - internalHeader) / intEntrySize,
	}
	if t.leafCap < 4 || t.intCap < 4 {
		panic(fmt.Sprintf("bptree: page size %d too small", p.PageSize()))
	}
	t.root = p.Alloc()
	t.writeNode(t.root, &Node{Leaf: true, Next: store.InvalidPage})
	return t
}

// Root returns the root page id.
func (t *Tree) Root() store.PageID { return t.root }

// Len returns the number of records.
func (t *Tree) Len() int { return t.size }

// View is a read-only node laid over the page bytes the pager returned:
// entries are fixed-width, so every accessor is offset arithmetic on the
// page and nothing is decoded or allocated. Indexes use it to run
// custom pruning traversals (the SPB-tree walks nodes best-first by MBB
// distance). A View aliases the page: it is valid until the next write
// to the tree.
type View struct {
	entries []byte // the count entries after the node header
	stride  int    // leafEntrySize or intEntrySize
	next    store.PageID
}

// View fetches a node (one page access, modulo cache). A page whose
// entry count exceeds the node capacity, or an internal node without
// children, is corrupt and an error.
//
//metriclint:noalloc
func (t *Tree) View(pid store.PageID) (View, error) {
	buf, err := t.pager.Read(pid)
	if err != nil {
		return View{}, err
	}
	return t.view(pid, buf)
}

// view lays a View over page pid's bytes buf.
//
//metriclint:noalloc
func (t *Tree) view(pid store.PageID, buf []byte) (View, error) {
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	if buf[0] == 0 {
		if count > t.leafCap {
			return View{}, errCorruptNode(pid, count, t.leafCap)
		}
		return View{
			entries: buf[leafHeader : leafHeader+count*leafEntrySize],
			stride:  leafEntrySize,
			next:    store.PageID(binary.LittleEndian.Uint32(buf[3:7])),
		}, nil
	}
	if count == 0 || count > t.intCap {
		return View{}, errCorruptNode(pid, count, t.intCap)
	}
	return View{entries: buf[internalHeader : internalHeader+count*intEntrySize], stride: intEntrySize}, nil
}

func errCorruptNode(pid store.PageID, count, capacity int) error {
	return fmt.Errorf("bptree: corrupt node in page %d: %d entries (capacity %d)", pid, count, capacity)
}

// Leaf reports whether the node holds records rather than children.
//
//metriclint:noalloc
func (v View) Leaf() bool { return v.stride == leafEntrySize }

// Len returns the number of records (leaf) or children (internal).
//
//metriclint:noalloc
func (v View) Len() int { return len(v.entries) / v.stride }

// Next returns the right sibling of a leaf (InvalidPage at the end).
//
//metriclint:noalloc
func (v View) Next() store.PageID { return v.next }

// key returns record i's key (leaf) or child i's max key (internal).
//
//metriclint:noalloc
func (v View) key(i int) uint64 {
	return binary.LittleEndian.Uint64(v.entries[i*v.stride:])
}

// Record returns record i of a leaf.
//
//metriclint:noalloc
func (v View) Record(i int) (key, val uint64) {
	e := v.entries[i*leafEntrySize : (i+1)*leafEntrySize]
	return binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint64(e[8:])
}

// Child returns child i of an internal node and its augmentation.
//
//metriclint:noalloc
func (v View) Child(i int) (pid store.PageID, auxLo, auxHi uint64) {
	e := v.entries[i*intEntrySize : (i+1)*intEntrySize]
	return store.PageID(binary.LittleEndian.Uint32(e[8:])),
		binary.LittleEndian.Uint64(e[12:]), binary.LittleEndian.Uint64(e[20:])
}

// childFor returns the first child whose max key is >= key, or the last
// child.
func (v View) childFor(key uint64) store.PageID {
	ci := v.Len() - 1
	for i := 0; i < ci; i++ {
		if key <= v.key(i) {
			ci = i
			break
		}
	}
	pid, _, _ := v.Child(ci)
	return pid
}

// decode copies the node into the mutable form Insert and Delete edit.
func (v View) decode() *Node {
	count := v.Len()
	n := &Node{Leaf: v.Leaf(), Next: v.next, Keys: make([]uint64, count)}
	if n.Leaf {
		n.Vals = make([]uint64, count)
		for i := range n.Keys {
			n.Keys[i], n.Vals[i] = v.Record(i)
		}
		return n
	}
	n.Children = make([]store.PageID, count)
	n.AuxLo = make([]uint64, count)
	n.AuxHi = make([]uint64, count)
	for i := range n.Keys {
		n.Keys[i] = v.key(i)
		n.Children[i], n.AuxLo[i], n.AuxHi[i] = v.Child(i)
	}
	return n
}

// readNode fetches a node for editing (one page access, modulo cache).
func (t *Tree) readNode(pid store.PageID) (*Node, error) {
	v, err := t.View(pid)
	if err != nil {
		return nil, err
	}
	return v.decode(), nil
}

// writeNode encodes and stores a node (one page access).
func (t *Tree) writeNode(pid store.PageID, n *Node) {
	buf := make([]byte, 0, t.pager.PageSize())
	if n.Leaf {
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.Keys)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Next))
		for i := range n.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, n.Keys[i])
			buf = binary.LittleEndian.AppendUint64(buf, n.Vals[i])
		}
	} else {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.Keys)))
		for i := range n.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, n.Keys[i])
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Children[i]))
			buf = binary.LittleEndian.AppendUint64(buf, n.AuxLo[i])
			buf = binary.LittleEndian.AppendUint64(buf, n.AuxHi[i])
		}
	}
	if err := t.pager.Write(pid, buf); err != nil {
		panic(fmt.Sprintf("bptree: node write: %v", err)) // pages are pre-allocated; cannot fail
	}
}

// auxOf computes a node's augmentation from its entries.
func (t *Tree) auxOf(n *Node) (uint64, uint64) {
	if t.aug == nil {
		return 0, 0
	}
	var lo, hi uint64
	first := true
	if n.Leaf {
		for i := range n.Keys {
			l, h := t.aug.Leaf(n.Keys[i], n.Vals[i])
			if first {
				lo, hi = l, h
				first = false
			} else {
				lo, hi = t.aug.Merge(lo, hi, l, h)
			}
		}
	} else {
		for i := range n.Keys {
			if first {
				lo, hi = n.AuxLo[i], n.AuxHi[i]
				first = false
			} else {
				lo, hi = t.aug.Merge(lo, hi, n.AuxLo[i], n.AuxHi[i])
			}
		}
	}
	return lo, hi
}

// splitResult reports an insert-induced split to the parent.
type splitResult struct {
	split    bool
	rightPID store.PageID
	rightKey uint64 // max key of new right node
	rightLo  uint64
	rightHi  uint64
	// updated left summary
	leftKey uint64
	leftLo  uint64
	leftHi  uint64
}

// Insert adds a (key, value) record.
func (t *Tree) Insert(key, val uint64) error {
	res, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	t.size++
	if res.split {
		newRoot := t.pager.Alloc()
		n := &Node{
			Leaf:     false,
			Keys:     []uint64{res.leftKey, res.rightKey},
			Children: []store.PageID{t.root, res.rightPID},
			AuxLo:    []uint64{res.leftLo, res.rightLo},
			AuxHi:    []uint64{res.leftHi, res.rightHi},
		}
		t.writeNode(newRoot, n)
		t.root = newRoot
	}
	return nil
}

func (t *Tree) insert(pid store.PageID, key, val uint64) (splitResult, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return splitResult{}, err
	}
	if n.Leaf {
		// Insert in sorted position (stable after equal keys).
		pos := upperBound(n.Keys, key)
		n.Keys = insertU64(n.Keys, pos, key)
		n.Vals = insertU64(n.Vals, pos, val)
		if len(n.Keys) <= t.leafCap {
			t.writeNode(pid, n)
			lo, hi := t.auxOf(n)
			return splitResult{leftKey: n.Keys[len(n.Keys)-1], leftLo: lo, leftHi: hi}, nil
		}
		// Split.
		mid := len(n.Keys) / 2
		right := &Node{
			Leaf: true,
			Keys: append([]uint64(nil), n.Keys[mid:]...),
			Vals: append([]uint64(nil), n.Vals[mid:]...),
			Next: n.Next,
		}
		rightPID := t.pager.Alloc()
		n.Keys = n.Keys[:mid]
		n.Vals = n.Vals[:mid]
		n.Next = rightPID
		t.writeNode(pid, n)
		t.writeNode(rightPID, right)
		llo, lhi := t.auxOf(n)
		rlo, rhi := t.auxOf(right)
		return splitResult{
			split:    true,
			rightPID: rightPID,
			rightKey: right.Keys[len(right.Keys)-1],
			rightLo:  rlo, rightHi: rhi,
			leftKey: n.Keys[len(n.Keys)-1],
			leftLo:  llo, leftHi: lhi,
		}, nil
	}

	// Internal: descend into the first child whose max key >= key, or the
	// last child.
	ci := len(n.Keys) - 1
	for i, mk := range n.Keys {
		if key <= mk {
			ci = i
			break
		}
	}
	res, err := t.insert(n.Children[ci], key, val)
	if err != nil {
		return splitResult{}, err
	}
	n.Keys[ci] = res.leftKey
	n.AuxLo[ci], n.AuxHi[ci] = res.leftLo, res.leftHi
	if res.split {
		n.Keys = insertU64(n.Keys, ci+1, res.rightKey)
		n.Children = insertPID(n.Children, ci+1, res.rightPID)
		n.AuxLo = insertU64(n.AuxLo, ci+1, res.rightLo)
		n.AuxHi = insertU64(n.AuxHi, ci+1, res.rightHi)
	}
	if len(n.Keys) <= t.intCap {
		t.writeNode(pid, n)
		lo, hi := t.auxOf(n)
		return splitResult{leftKey: n.Keys[len(n.Keys)-1], leftLo: lo, leftHi: hi}, nil
	}
	// Split internal node.
	mid := len(n.Keys) / 2
	right := &Node{
		Keys:     append([]uint64(nil), n.Keys[mid:]...),
		Children: append([]store.PageID(nil), n.Children[mid:]...),
		AuxLo:    append([]uint64(nil), n.AuxLo[mid:]...),
		AuxHi:    append([]uint64(nil), n.AuxHi[mid:]...),
	}
	rightPID := t.pager.Alloc()
	n.Keys = n.Keys[:mid]
	n.Children = n.Children[:mid]
	n.AuxLo = n.AuxLo[:mid]
	n.AuxHi = n.AuxHi[:mid]
	t.writeNode(pid, n)
	t.writeNode(rightPID, right)
	llo, lhi := t.auxOf(n)
	rlo, rhi := t.auxOf(right)
	return splitResult{
		split:    true,
		rightPID: rightPID,
		rightKey: right.Keys[len(right.Keys)-1],
		rightLo:  rlo, rightHi: rhi,
		leftKey: n.Keys[len(n.Keys)-1],
		leftLo:  llo, leftHi: lhi,
	}, nil
}

// Delete removes one record matching (key, val). Nodes are allowed to
// underflow (no rebalancing): search correctness is unaffected and the
// paper's update experiment measures delete+reinsert, not compaction.
func (t *Tree) Delete(key, val uint64) error {
	pid, v, err := t.LeafFor(key)
	for err == nil {
		for i, count := 0, v.Len(); i < count; i++ {
			k, x := v.Record(i)
			if k == key && x == val {
				n := v.decode()
				n.Keys = append(n.Keys[:i], n.Keys[i+1:]...)
				n.Vals = append(n.Vals[:i], n.Vals[i+1:]...)
				t.writeNode(pid, n)
				t.size--
				return nil
			}
			if k > key {
				return fmt.Errorf("bptree: record (%d,%d) not found", key, val)
			}
		}
		if pid = v.Next(); pid == store.InvalidPage {
			return fmt.Errorf("bptree: record (%d,%d) not found", key, val)
		}
		v, err = t.View(pid)
	}
	return err
}

// LeafFor descends to the first leaf that may contain key, viewing
// every page on the way, and returns that leaf's page and view: a scan
// starts on the view and reads the first leaf once.
//
//metriclint:noalloc
func (t *Tree) LeafFor(key uint64) (store.PageID, View, error) {
	pid := t.root
	for {
		v, err := t.View(pid)
		if err != nil {
			return store.InvalidPage, View{}, err
		}
		if v.Leaf() {
			return pid, v, nil
		}
		pid = v.childFor(key)
	}
}

// RangeScan invokes fn for every record with lo <= key <= hi, in key
// order, until fn returns false.
func (t *Tree) RangeScan(lo, hi uint64, fn func(key, val uint64) bool) error {
	_, v, err := t.LeafFor(lo)
	for err == nil {
		for i, n := 0, v.Len(); i < n; i++ {
			key, val := v.Record(i)
			if key < lo {
				continue
			}
			if key > hi || !fn(key, val) {
				return nil
			}
		}
		if v.Next() == store.InvalidPage {
			return nil
		}
		v, err = t.View(v.Next())
	}
	return err
}

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() (int, error) {
	h := 1
	pid := t.root
	for {
		v, err := t.View(pid)
		if err != nil {
			return 0, err
		}
		if v.Leaf() {
			return h, nil
		}
		h++
		pid, _, _ = v.Child(0)
	}
}

// KeyFromFloat maps a non-negative float64 to a uint64 preserving order
// (IEEE-754 bit patterns of non-negative floats sort numerically).
func KeyFromFloat(f float64) uint64 {
	if f < 0 || math.IsNaN(f) {
		panic(fmt.Sprintf("bptree: key %v must be a non-negative number", f))
	}
	return math.Float64bits(f)
}

func upperBound(xs []uint64, key uint64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertU64(xs []uint64, pos int, v uint64) []uint64 {
	xs = append(xs, 0)
	copy(xs[pos+1:], xs[pos:])
	xs[pos] = v
	return xs
}

func insertPID(xs []store.PageID, pos int, v store.PageID) []store.PageID {
	xs = append(xs, 0)
	copy(xs[pos+1:], xs[pos:])
	xs[pos] = v
	return xs
}
