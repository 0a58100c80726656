package mtree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// Insert adds the dataset object with the given id: descend by the
// family's choose-subtree rule, widening each region on the way, append
// to the reached leaf, and split bottom-up on page overflow. An R-tree
// first appends the object to its RAF.
func (t *Tree) Insert(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("mtree: insert of deleted or out-of-range object %d", id)
	}
	_, inM := t.leafOf[id]
	if _, inR := t.points[id]; inM || inR {
		return fmt.Errorf("mtree: duplicate insert of %d", id)
	}
	e := entry{id: int32(id), v: t.point(o), obj: o}
	if !t.fam.ball {
		off, err := t.raf.Append(id, store.EncodeObject(nil, o))
		if err != nil {
			return err
		}
		e.obj, e.raf = nil, uint64(off)
		t.points[id] = e.v
	}
	sp, err := t.insert(t.root, &e, math.Inf(1))
	if err != nil {
		return err
	}
	if sp != nil {
		// Root split: grow the tree by one level.
		root, err := t.pack(sp[:], false)
		if err != nil {
			return err
		}
		t.root = root
	}
	t.size++
	return nil
}

// insert descends recursively. dParent is the distance from the new
// object to the routing object of the entry leading to pid — the parent
// distance the new entry gets when pid is its leaf. A split child
// returns the two routing entries that replace its own.
func (t *Tree) insert(pid store.PageID, e *entry, dParent float64) (*[2]entry, error) {
	n, err := t.read(pid)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		e.pd = dParent
		n.entries = append(n.entries, *e)
		if t.fam.ball {
			t.leafOf[int(e.id)] = pid
		}
	} else {
		i, d := t.fam.choose(t, n, e)
		if i < 0 {
			return nil, fmt.Errorf("mtree: page %d has no routing entry to descend into", pid)
		}
		c := &n.entries[i]
		if t.fam.ball && d > c.radius {
			c.radius = d
		}
		extend(c.v, e.v, e.v)
		sp, err := t.insert(c.child, e, d)
		if err != nil {
			return nil, err
		}
		// A split child's two promoted entries replace its own; their
		// distances to this node's routing object are unknown here, so
		// their parent-distance filter stays off (∞). The M-tree keeps
		// the second beside the first; the R-tree appends it.
		if sp != nil {
			n.entries[i] = sp[0]
			if t.fam.ball {
				n.entries = slices.Insert(n.entries, i+1, sp[1])
			} else {
				n.entries = append(n.entries, sp[1])
			}
		}
	}
	if !t.fits(n) {
		return t.split(pid, n)
	}
	t.write(pid, n)
	return nil, nil
}

// chooseBall is the M-tree's rule: among the covering balls the closest
// routing object, otherwise the ball needing the least radius
// enlargement.
func chooseBall(t *Tree, n *node, e *entry) (int, float64) {
	sp := t.ds.Space()
	best, bestD, bestEnl := -1, math.Inf(1), math.Inf(1)
	covered := false
	for i := range n.entries {
		c := &n.entries[i]
		d := sp.Distance(e.obj, c.obj)
		if d <= c.radius {
			if !covered || d < bestD {
				covered = true
				best, bestD = i, d
			}
		} else if !covered {
			if enl := d - c.radius; enl < bestEnl {
				bestEnl = enl
				best, bestD = i, d
			}
		}
	}
	return best, bestD
}

// chooseBox is the R-tree's rule: the least perimeter enlargement, ties
// to the smaller perimeter.
func chooseBox(_ *Tree, n *node, e *entry) (int, float64) {
	best, bestEnl, bestPer := -1, math.Inf(1), math.Inf(1)
	for i := range n.entries {
		blo, bhi := n.entries[i].box(false)
		var enl, per float64
		for d, x := range e.v {
			lo, hi := blo[d], bhi[d]
			nlo, nhi := math.Min(lo, x), math.Max(hi, x)
			enl += (nhi - nlo) - (hi - lo)
			per += nhi - nlo
		}
		if enl < bestEnl || (enl == bestEnl && per < bestPer) {
			best, bestEnl, bestPer = i, enl, per
		}
	}
	return best, math.Inf(1)
}

// split divides an overflowed node by the family's rule, reusing pid for
// the first half, and returns the routing entries of the two halves.
func (t *Tree) split(pid store.PageID, n *node) (*[2]entry, error) {
	if len(n.entries) < 2 {
		return nil, fmt.Errorf("mtree: node overflows page size %d with %d entries; increase the page size (paper §6.1 uses 40KB for high-dimensional data)",
			t.pager.PageSize(), len(n.entries))
	}
	a, b, ao, bo := t.fam.split(t, n)
	left, right := &node{leaf: n.leaf, entries: a}, &node{leaf: n.leaf, entries: b}
	rightPID := t.pager.Alloc()
	// Objects bigger than half a page can defeat the M-tree's hyperplane
	// partition, so move entries until both halves fit.
	if !t.fits(left) || !t.fits(right) {
		if err := t.rebalance(left, right); err != nil {
			return nil, err
		}
	}
	sp := [2]entry{t.routing(ao, pid, left), t.routing(bo, rightPID, right)}
	t.write(pid, left)
	t.write(rightPID, right)
	for k, h := range []*node{left, right} {
		for i := 0; h.leaf && t.fam.ball && i < len(h.entries); i++ {
			t.leafOf[int(h.entries[i].id)] = sp[k].child
		}
	}
	return &sp, nil
}

// routing returns the entry for child page pid holding n: its bounding
// box and, around routing object ro (nil without balls), the covering
// radius, which needs the parent distances still unknown (∞) in n.
func (t *Tree) routing(ro core.Object, pid store.PageID, n *node) entry {
	e := entry{child: pid, obj: ro, pd: math.Inf(1), v: t.bound(n)}
	for i := 0; ro != nil && i < len(n.entries); i++ {
		c := &n.entries[i]
		if math.IsInf(c.pd, 1) {
			c.pd = t.ds.Space().Distance(ro, c.obj)
		}
		if d := c.pd + c.radius; d > e.radius {
			e.radius = d
		}
	}
	return e
}

// splitHyperplane is the M-tree's split. Promotion: a far pair by two
// linear passes (random anchor → farthest a; farthest from a → b), O(3·c)
// distance computations. Partition: the generalized hyperplane (the
// nearer promoted object wins), by position when every entry ties.
func splitHyperplane(t *Tree, n *node) (a, b []entry, ao, bo core.Object) {
	sp := t.ds.Space()
	anchor := t.rng.Intn(len(n.entries))
	farthest := func(from int) (int, float64) {
		j, dj := anchor, -1.0
		for i := range n.entries {
			if i == from {
				continue
			}
			if d := sp.Distance(n.entries[from].obj, n.entries[i].obj); d > dj {
				j, dj = i, d
			}
		}
		return j, dj
	}
	ai, _ := farthest(anchor)
	bi, bd := farthest(ai)
	if ai == bi {
		bi = (ai + 1) % len(n.entries)
	}
	ao, bo = n.entries[ai].obj, n.entries[bi].obj
	for i := range n.entries {
		e := n.entries[i]
		var da, db float64
		switch i {
		case ai:
			da, db = 0, bd
		case bi:
			da, db = bd, 0
		default:
			da = sp.Distance(ao, e.obj)
			db = sp.Distance(bo, e.obj)
		}
		if da <= db {
			e.pd = da
			a = append(a, e)
		} else {
			e.pd = db
			b = append(b, e)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		a, b = nil, nil
		mid := len(n.entries) / 2
		for i, e := range n.entries {
			if i < mid {
				e.pd = sp.Distance(ao, e.obj)
				a = append(a, e)
			} else {
				e.pd = sp.Distance(bo, e.obj)
				b = append(b, e)
			}
		}
	}
	return a, b, ao, bo
}

// splitMedian is the R-tree's split: sort along the dimension of widest
// spread (points, or box centres) and cut at the median.
func splitMedian(t *Tree, n *node) (a, b []entry, _, _ core.Object) {
	dim, spread := 0, -1.0
	for d := range t.pivots {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range n.entries {
			elo, ehi := n.entries[i].box(n.leaf)
			lo, hi = math.Min(lo, elo[d]), math.Max(hi, ehi[d])
		}
		if s := hi - lo; s > spread {
			dim, spread = d, s
		}
	}
	key := func(e *entry) float64 {
		if n.leaf {
			return e.v[dim]
		}
		lo, hi := e.box(false)
		return (lo[dim] + hi[dim]) / 2
	}
	es := n.entries
	sort.Slice(es, func(i, j int) bool { return key(&es[i]) < key(&es[j]) })
	mid := len(es) / 2
	return append([]entry(nil), es[:mid]...), append([]entry(nil), es[mid:]...), nil, nil
}

// rebalance moves entries between halves until both fit; a moved entry's
// parent distance becomes unknown (∞), which routing recomputes.
func (t *Tree) rebalance(a, b *node) error {
	for _, p := range [2][2]*node{{a, b}, {b, a}} {
		from, to := p[0], p[1]
		for !t.fits(from) {
			if len(from.entries) <= 1 {
				return fmt.Errorf("mtree: entry larger than page (%d bytes); increase the page size", t.nodeSize(from))
			}
			e := from.entries[len(from.entries)-1]
			e.pd = math.Inf(1)
			from.entries = from.entries[:len(from.entries)-1]
			to.entries = append(to.entries, e)
		}
	}
	return nil
}

// Delete removes the object from its leaf: the one the M-tree's directory
// names, or the first the R-tree reaches descending into every box that
// contains the object's point (an R-tree then drops it from its RAF).
// Regions stay as they are — conservative, which preserves search
// correctness; no rebalancing is performed (§6.3 measures
// delete+reinsert).
func (t *Tree) Delete(id int) error {
	pid, inM := t.leafOf[id]
	pt, inR := t.points[id]
	if !inM && !inR {
		return fmt.Errorf("mtree: delete of unindexed object %d", id)
	}
	if inR {
		pid = t.root
	}
	found, err := t.remove(pid, id, pt)
	if err == nil && !found {
		err = fmt.Errorf("mtree: object %d is missing from the leaves", id)
	}
	if err != nil {
		return err
	}
	t.size--
	if inM {
		delete(t.leafOf, id)
		return nil
	}
	delete(t.points, id)
	return t.raf.Delete(id)
}

// remove deletes id from the leaf at pid, or below pid from the first
// leaf holding it among the subtrees whose boxes contain pt.
func (t *Tree) remove(pid store.PageID, id int, pt []float64) (bool, error) {
	n, err := t.read(pid)
	if err != nil {
		return false, err
	}
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case n.leaf && int(e.id) == id:
			n.entries = slices.Delete(n.entries, i, i+1)
			t.write(pid, n)
			return true, nil
		case !n.leaf && !far(e, false, math.Inf(1), pt, 0): // the box contains pt
			if found, err := t.remove(e.child, id, pt); err != nil || found {
				return found, err
			}
		}
	}
	return false, nil
}
