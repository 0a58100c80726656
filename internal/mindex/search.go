package mindex

import (
	"container/heap"
	"math"
	"sort"

	"metricindex/internal/core"
)

// leafRef pairs a leaf cluster with the pivot indexes already used on its
// path (needed for Lemma 3's "remaining pivots" minimum).
type leafRef struct {
	c    *cluster
	used []int
}

// collectLeaves gathers the leaf clusters that survive pruning for a
// range query of radius r. Lemma 3 (double-pivot filtering) discards a
// cluster when d(q, p_cluster) − min_j d(q, p_j) > 2r over the pivots j
// that competed in the same partition; M-index* additionally applies
// Lemma 1 on the cluster MBB.
func (m *MIndex) collectLeaves(qd []float64, r float64, prune bool) []leafRef {
	var out []leafRef
	var walk func(c *cluster, used []int)
	walk = func(c *cluster, used []int) {
		if c.leaf() {
			if c.count == 0 {
				return
			}
			if prune && m.opts.Star && c.mbb.PruneMBB(qd, r) {
				return
			}
			out = append(out, leafRef{c, used})
			return
		}
		// Minimum query-pivot distance among the pivots competing at this
		// node (all pivots not yet used on the path).
		dqmin := math.Inf(1)
		for i := range qd {
			if contains(used, i) {
				continue
			}
			if qd[i] < dqmin {
				dqmin = qd[i]
			}
		}
		for pi, child := range c.children {
			if child == nil || prune && core.PruneHyperplane(qd[pi], dqmin, r) {
				continue
			}
			walk(child, append(append([]int{}, used...), pi))
		}
	}
	walk(m.root, nil)
	return out
}

// scanLeaf runs the iDistance band scan of one cluster for radius r and
// hands every candidate id to fn.
func (m *MIndex) scanLeaf(c *cluster, qd []float64, r float64, fn func(id int) error) error {
	dqp := qd[c.pivotIdx]
	lo := dqp - r
	if lo < c.minD {
		lo = c.minD
	}
	hi := dqp + r
	if hi > c.maxD {
		hi = c.maxD
	}
	if lo > hi {
		return nil
	}
	loKey := m.key(c.slot, lo)
	hiKey := m.key(c.slot, hi)
	if end := m.bandEnd(c.slot); hiKey > end {
		hiKey = end
	}
	var inner error
	err := m.tree.RangeScan(loKey, hiKey, func(k, v uint64) bool {
		if e := fn(int(v)); e != nil {
			inner = e
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return inner
}

// RangeSearch answers MRQ(q, r): qualifying clusters are found via the
// cluster tree (Lemma 3, plus MBBs for M-index*), their B+-tree bands are
// scanned, and candidates are filtered with Lemma 1 on their stored
// distance vectors (plus Lemma 4 validation for M-index*) before
// verification.
func (m *MIndex) RangeSearch(q core.Object, r float64) ([]int, error) {
	qd := m.queryDists(q)
	sp := m.ds.Space()
	var res []int
	for _, lr := range m.collectLeaves(qd, r, true) {
		err := m.scanLeaf(lr.c, qd, r, func(id int) error {
			dv, o, err := m.loadCandidate(id)
			if err != nil {
				return err
			}
			if core.PruneObject(qd, dv, r) {
				return nil
			}
			if m.opts.Star && core.ValidateObject(qd, dv, r) {
				res = append(res, id) // Lemma 4: no distance computation
				return nil
			}
			if sp.Distance(q, o) <= r {
				res = append(res, id)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Ints(res)
	return res, nil
}

// KNNSearch answers MkNNQ(q, k). The plain M-index re-runs range queries
// with a doubling radius (§5.3's stated weakness: the index is traversed
// multiple times); M-index* performs one best-first pass over clusters
// ordered by their MBB lower bounds.
func (m *MIndex) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 || m.size == 0 {
		return nil, nil
	}
	if m.opts.Star {
		return m.knnBestFirst(q, k)
	}
	return m.knnIncremental(q, k)
}

// knnIncremental is the plain M-index strategy.
func (m *MIndex) knnIncremental(q core.Object, k int) ([]core.Neighbor, error) {
	qd := m.queryDists(q)
	sp := m.ds.Space()
	h := core.NewKNNHeap(k)
	seen := make(map[int]bool)
	r := m.opts.MaxDistance / 64
	for {
		for _, lr := range m.collectLeaves(qd, r, true) {
			err := m.scanLeaf(lr.c, qd, r, func(id int) error {
				if seen[id] {
					return nil
				}
				dv, o, err := m.loadCandidate(id)
				if err != nil {
					return err
				}
				if core.PruneObject(qd, dv, r) {
					// Pruned only w.r.t. the current radius; it may
					// qualify in a later, wider round (this re-reading is
					// the redundant I/O §5.3 attributes to the plain
					// M-index).
					return nil
				}
				seen[id] = true
				h.Push(id, sp.Distance(q, o))
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if h.Len() >= minInt(k, m.size) && h.Radius() <= r {
			return h.Result(), nil
		}
		// Completion bound: once r >= max_i d(q,p_i) + d+, every band
		// covers all of its cluster (|d(q,p_c) − d(o,p_c)| can never
		// exceed that), so the scan above was exhaustive. This matters
		// for query objects far outside the data domain, where d(q,p)
		// exceeds d+.
		dqmax := 0.0
		for _, d := range qd {
			if d > dqmax {
				dqmax = d
			}
		}
		if r >= dqmax+m.opts.MaxDistance {
			return h.Result(), nil
		}
		r *= 2
	}
}

// clusterItem prioritizes clusters by lower bound for the M-index*
// best-first traversal.
type clusterItem struct {
	c  *cluster
	lb float64
}

type clusterPQ []clusterItem

func (p clusterPQ) Len() int           { return len(p) }
func (p clusterPQ) Less(i, j int) bool { return p[i].lb < p[j].lb }
func (p clusterPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *clusterPQ) Push(x any)        { *p = append(*p, x.(clusterItem)) }
func (p *clusterPQ) Pop() any {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// knnBestFirst is the M-index* strategy: clusters are visited once, in
// ascending MBB lower-bound order, with the radius tightening as
// candidates verify.
func (m *MIndex) knnBestFirst(q core.Object, k int) ([]core.Neighbor, error) {
	qd := m.queryDists(q)
	sp := m.ds.Space()
	h := core.NewKNNHeap(k)
	pq := &clusterPQ{}
	for _, lr := range m.collectLeaves(qd, math.Inf(1), false) {
		lb := lr.c.mbb.MinDist(qd)
		heap.Push(pq, clusterItem{lr.c, lb})
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(clusterItem)
		if it.lb > h.Radius() {
			break
		}
		// While the heap is not yet full the radius is unbounded, so the
		// whole cluster band must be scanned (scanLeaf clamps the band to
		// [minD, maxD], so an infinite radius is safe and exact).
		r := h.Radius()
		err := m.scanLeaf(it.c, qd, r, func(id int) error {
			cur := h.Radius()
			dv, o, err := m.loadCandidate(id)
			if err != nil {
				return err
			}
			if !math.IsInf(cur, 1) && core.PruneObject(qd, dv, cur) {
				return nil
			}
			h.Push(id, sp.Distance(q, o))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return h.Result(), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
