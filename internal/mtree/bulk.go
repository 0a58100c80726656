package mtree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/sfc"
	"metricindex/internal/store"
)

const (
	// partitions is the M-tree bulk load's number of sample-based
	// partitions, clamped so each averages at least minPartitionSize
	// objects: it balances partition-build parallelism against root
	// fanout. The page image depends on it but never on Workers.
	partitions = 8
	// minPartitionSize is the average partition size below which extra
	// partitions stop paying for themselves (tiny subtrees plus a taller
	// merge root).
	minPartitionSize = 32
)

// bulkPartitioned is the M-tree's bulk load:
//
//  1. sample the partitions' routing objects (deterministically from the
//     seed) and assign every object to its nearest sample — the phase
//     that dominates distance computations, fanned out over the workers;
//  2. build each partition's subtree by insertion into a private staging
//     pager, partitions running in parallel workers;
//  3. merge sequentially: copy each partition's pages into the real
//     pager in partition order (rewriting child pointers), then pack the
//     partition routing entries — whose covering radii are the *exact*
//     maxima recorded during assignment — into the levels above.
//
// Because sampling and assignment are deterministic, each partition
// builds sequentially in its own staging space, and only the sequential
// merge writes through the shared pager, the page image is identical for
// every worker count; only wall-clock time changes.
func bulkPartitioned(t *Tree, ids []int, workers int) error {
	ds, sp := t.ds, t.ds.Space()
	p := min(partitions, len(ids)/minPartitionSize)

	// Phase 1: sample the routing objects and assign every object to its
	// nearest sample (ties to the lowest sample index). The per-object
	// distances also yield each partition's exact covering radius.
	perm := rand.New(rand.NewSource(t.seed)).Perm(len(ids))[:p]
	samples := make([]core.Object, p)
	for i, pos := range perm {
		samples[i] = ds.Object(ids[pos])
	}
	assign := make([]int32, len(ids))
	distTo := make([]float64, len(ids))
	core.ParallelFor(len(ids), workers, func(start, end int) {
		for i := start; i < end; i++ {
			o := ds.Object(ids[i])
			best, bestD := 0, sp.Distance(o, samples[0])
			for j := 1; j < p; j++ {
				if d := sp.Distance(o, samples[j]); d < bestD {
					best, bestD = j, d
				}
			}
			assign[i], distTo[i] = int32(best), bestD
		}
	})
	parts := make([][]int, p)
	radius := make([]float64, p)
	for i, id := range ids {
		parts[assign[i]] = append(parts[assign[i]], id)
		if distTo[i] > radius[assign[i]] {
			radius[assign[i]] = distTo[i]
		}
	}

	// Phase 2: per-partition subtree builds, each an insertion run
	// against a private staging pager.
	staged := make([]*Tree, p)
	errs := make([]error, p)
	core.ParallelFor(p, workers, func(start, end int) {
		for pi := start; pi < end; pi++ {
			staged[pi] = newTree(ds, store.NewPager(t.pager.PageSize()), t.fam, t.pivots, t.seed+int64(pi)+1)
			errs[pi] = staged[pi].build(parts[pi], 0)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Phase 3: sequential merge. Copy each partition's pages, rewriting
	// child pointers through the remap table, then hand the partition
	// routing entries to pack. The partition root's entries get their
	// true parent distances to the sample, re-arming the parent-distance
	// filter that the staged build left off (∞) at its root.
	rootEntries := make([]entry, 0, p)
	for pi, st := range staged {
		if len(parts[pi]) == 0 {
			continue // empty partition (duplicate samples): nothing to merge
		}
		remap := make([]store.PageID, st.pager.Pages())
		for i := range remap {
			remap[i] = t.pager.Alloc()
		}
		var box []float64
		for i := range remap {
			n, err := st.read(store.PageID(i))
			if err != nil {
				return fmt.Errorf("mtree: bulk merge of partition %d: %w", pi, err)
			}
			if !n.leaf {
				for j := range n.entries {
					n.entries[j].child = remap[n.entries[j].child]
				}
			}
			if store.PageID(i) == st.root {
				for j := range n.entries {
					n.entries[j].pd = sp.Distance(samples[pi], n.entries[j].obj)
				}
				box = t.bound(n)
			}
			t.write(remap[i], n)
		}
		for id, pid := range st.leafOf {
			t.leafOf[id] = remap[pid]
		}
		t.size += st.size
		rootEntries = append(rootEntries, entry{obj: samples[pi], child: remap[st.root], radius: radius[pi], v: box, pd: math.Inf(1)})
	}
	root, err := t.pack(rootEntries, false)
	t.root = root
	return err
}

// bulkHilbert is the R-tree's bulk load: the objects go to the RAF in id
// order, then their leaf entries, sorted along a Hilbert curve over the
// quantized points for locality, are packed bottom-up (construction's
// low PA in Table 4 comes from this packing rather than from repeated
// descents). The empty root leaf an insertion build starts from is
// written first and stays in the image.
func bulkHilbert(t *Tree, ids []int, workers int) error {
	t.root = t.pager.Alloc()
	t.write(t.root, &node{leaf: true})
	pts := make([][]float64, len(ids))
	core.ParallelFor(len(ids), workers, func(start, end int) {
		for i := start; i < end; i++ {
			pts[i] = t.point(t.ds.Object(ids[i]))
		}
	})
	dims := len(t.pivots)
	bits := min(max(62/dims, 1), 16)
	h, err := sfc.NewHilbert(dims, bits)
	if err != nil {
		return fmt.Errorf("mtree: bulk load curve: %w", err)
	}
	top := float64(uint64(1)<<uint(bits) - 1)
	scale := top / t.maxCoord
	cell := make([]uint32, dims)
	type keyed struct {
		key uint64
		e   entry
	}
	ks := make([]keyed, len(ids))
	for i, id := range ids {
		off, err := t.raf.Append(id, store.EncodeObject(nil, t.ds.Object(id)))
		if err != nil {
			return err
		}
		t.points[id] = pts[i]
		for d, v := range pts[i] {
			cell[d] = uint32(min(max(v*scale, 0), top))
		}
		ks[i] = keyed{h.Encode(cell), entry{id: int32(id), v: pts[i], raf: uint64(off)}}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	entries := make([]entry, len(ks))
	for i := range ks {
		entries[i] = ks[i].e
	}
	root, err := t.pack(entries, true)
	t.root, t.size = root, len(ids)
	return err
}

// pack writes entries — leaf entries in their final order, or routing
// entries over subtrees already written — level by level into greedily
// filled nodes until one node holds a level, and returns that root. An
// M-tree group's routing object is its first entry's.
func (t *Tree) pack(entries []entry, leaf bool) (store.PageID, error) {
	ps := t.pager.PageSize()
	for {
		if !leaf && len(entries) == 1 {
			// A single routing entry means its child already is the root.
			return entries[0].child, nil
		}
		if n := (&node{leaf: leaf, entries: entries}); t.fits(n) {
			for i := range n.entries {
				n.entries[i].pd = math.Inf(1) // root level: no parent
			}
			pid := t.pager.Alloc()
			t.write(pid, n)
			return pid, nil
		}
		var parents []entry
		for i := 0; i < len(entries); {
			g := &node{leaf: leaf}
			for sz := 3; i < len(entries); i++ {
				if sz += t.entrySize(leaf, &entries[i]); sz > ps {
					break
				}
				g.entries = append(g.entries, entries[i])
			}
			if len(g.entries) == 0 {
				return 0, fmt.Errorf("mtree: entry exceeds the %d-byte page; increase the page size (§6.1 uses 40KB for high-dimensional data)", ps)
			}
			var ro core.Object
			if t.fam.ball {
				ro = g.entries[0].obj
				for j := range g.entries {
					g.entries[j].pd = math.Inf(1)
				}
			}
			pid := t.pager.Alloc()
			parents = append(parents, t.routing(ro, pid, g))
			t.write(pid, g)
		}
		if len(parents) >= len(entries) {
			// Every group held a single entry: two entries exceed a page,
			// so packing cannot make progress.
			return 0, fmt.Errorf("mtree: two entries exceed the %d-byte page; increase the page size (§6.1 uses 40KB for high-dimensional data)", ps)
		}
		entries, leaf = parents, false
	}
}
