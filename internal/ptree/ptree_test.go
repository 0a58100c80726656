package ptree

import (
	"fmt"
	"math"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// familyCase builds one family over a dataset of its kind: integer
// vectors under the discrete L∞ metric for BKT and FQT, L2 vectors for
// MVPT.
type familyCase struct {
	name    string
	dataset func(n int) *core.Dataset
	build   func(ds *core.Dataset, pv []int, opts Options) (*Tree, error)
}

var familyCases = []familyCase{
	{"BKT", intVectors, func(ds *core.Dataset, _ []int, opts Options) (*Tree, error) {
		opts.Seed, opts.MaxDistance = 3, 100
		return NewBKT(ds, opts)
	}},
	{"FQT", intVectors, func(ds *core.Dataset, pv []int, opts Options) (*Tree, error) {
		opts.MaxDistance = 100
		return NewFQT(ds, pv, opts)
	}},
	{"MVPT", func(n int) *core.Dataset { return testutil.VectorDataset(n, 4, 100, core.L2{}, 7) },
		func(ds *core.Dataset, pv []int, opts Options) (*Tree, error) { return NewMVPT(ds, pv, opts) }},
}

func intVectors(n int) *core.Dataset { return testutil.IntVectorDataset(n, 4, 100, 7) }

func hfi(t *testing.T, ds *core.Dataset, k int) []int {
	t.Helper()
	pv, err := pivot.HFI(ds, k, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	return pv
}

// sameTree deep-compares two subtrees: pivots, child intervals, and the
// exact identifier sequence of every leaf.
func sameTree(a, b *node) error {
	if a.leaf() != b.leaf() {
		return fmt.Errorf("leaf/internal mismatch")
	}
	if a.leaf() {
		if fmt.Sprint(a.ids) != fmt.Sprint(b.ids) {
			return fmt.Errorf("leaf ids %v vs %v", a.ids, b.ids)
		}
		return nil
	}
	if a.pivotID != b.pivotID || a.pivotLive != b.pivotLive || len(a.children) != len(b.children) {
		return fmt.Errorf("pivot %d/%v fanout %d vs pivot %d/%v fanout %d",
			a.pivotID, a.pivotLive, len(a.children), b.pivotID, b.pivotLive, len(b.children))
	}
	for i, ac := range a.children {
		bc := b.children[i]
		if ac.lo != bc.lo || ac.hi != bc.hi {
			return fmt.Errorf("child %d interval [%v,%v] vs [%v,%v]", i, ac.lo, ac.hi, bc.lo, bc.hi)
		}
		if err := sameTree(ac.n, bc.n); err != nil {
			return fmt.Errorf("child %d: %w", i, err)
		}
	}
	return nil
}

// TestParallelBuildIdentical checks that the node-level parallel build
// of every family produces exactly the sequential tree — same pivots,
// intervals and leaf id order (BKT's content-hashed pivot choice is
// order-independent, so worker scheduling cannot change it) — and that
// it answers correctly.
func TestParallelBuildIdentical(t *testing.T) {
	for _, fc := range familyCases {
		t.Run(fc.name, func(t *testing.T) {
			// 3000 objects with LeafCapacity 4 recurse above and below
			// the parallel cutoff.
			ds := fc.dataset(3000)
			pv := hfi(t, ds, 5)
			seq, err := fc.build(ds, pv, Options{LeafCapacity: 4})
			if err != nil {
				t.Fatalf("sequential build: %v", err)
			}
			for _, workers := range []int{-1, 4, 8} {
				par, err := fc.build(ds, pv, Options{LeafCapacity: 4, Workers: workers})
				if err != nil {
					t.Fatalf("build(workers=%d): %v", workers, err)
				}
				if err := sameTree(seq.root, par.root); err != nil {
					t.Fatalf("workers=%d tree differs from sequential: %v", workers, err)
				}
				for qs := int64(0); qs < 3; qs++ {
					q := testutil.RandomQuery(ds, qs)
					testutil.CheckRange(t, par, ds, q, 20)
					testutil.CheckKNN(t, par, ds, q, 9)
				}
			}
		})
	}
}

// TestBuildConcurrencyBounded asserts the token pool keeps each family's
// total build concurrency at Workers — not Workers per tree level.
func TestBuildConcurrencyBounded(t *testing.T) {
	const workers = 3
	for _, fc := range familyCases {
		t.Run(fc.name, func(t *testing.T) {
			ds, probe := testutil.ProbeDataset(fc.dataset(1500), 0)
			if _, err := fc.build(ds, testutil.SpreadPivots(ds, 5), Options{Workers: workers}); err != nil {
				t.Fatalf("build: %v", err)
			}
			if got := probe.Max(); got > workers {
				t.Fatalf("observed %d concurrent distance computations, Workers=%d", got, workers)
			}
		})
	}
}

// TestKNNAllocs is the allocation witness of the one best-first kNN loop:
// a query allocates its collector and answer, its query distances and the
// growth of one core.MinHeap — a constant, whatever the tree's size — and
// nothing per node it queues.
func TestKNNAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	const budget = 16
	for _, fc := range familyCases {
		t.Run(fc.name, func(t *testing.T) {
			ds := fc.dataset(20000)
			idx, err := fc.build(ds, hfi(t, ds, 5), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for qs := int64(0); qs < 4; qs++ {
				q := testutil.RandomQuery(ds, qs)
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := idx.KNNSearch(q, 10); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > budget {
					t.Errorf("query %d: kNN allocated %.0f times; budget %d", qs, allocs, budget)
				}
			}
		})
	}
}

func depth(n *node) int {
	d := 0
	for _, c := range n.children {
		d = max(d, depth(c.n))
	}
	return d + 1
}

// TestDuplicateInsertsStayShallow inserts 3 000 copies of one object into
// a BKT (LeafCapacity 4) and an MVPT. A leaf of duplicates cannot split:
// rebuilding it on every insert grew BKT a chain one node deeper per
// insert (and a snapshot deeper than the decoder accepts) and re-sorted
// the MVPT leaf, so each insert cost compdists in proportion to the
// copies already in. The tree must stay shallow, each insert must stay
// cheap, and the snapshot must round-trip.
func TestDuplicateInsertsStayShallow(t *testing.T) {
	const copies = 3000
	for _, fc := range familyCases {
		if fc.name == "FQT" {
			continue // its depth is capped at len(pivots)
		}
		t.Run(fc.name, func(t *testing.T) {
			ds := fc.dataset(200)
			idx, err := fc.build(ds, hfi(t, ds, 5), Options{LeafCapacity: 4})
			if err != nil {
				t.Fatal(err)
			}
			dup := ds.Object(7)
			ds.Space().ResetCompDists()
			for range copies {
				if err := idx.Insert(ds.Insert(dup)); err != nil {
					t.Fatal(err)
				}
			}
			if d := depth(idx.root); d > 12 {
				t.Errorf("depth %d after %d duplicate inserts", d, copies)
			}
			if per := float64(ds.Space().CompDists()) / copies; per > 16 {
				t.Errorf("%.1f compdists per duplicate insert", per)
			}
			data, err := persist.Encode(ds, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := persist.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			q := testutil.RandomQuery(snap.Dataset, 1)
			testutil.CheckRange(t, snap.Index, snap.Dataset, q, 15)
			testutil.CheckKNN(t, snap.Index, snap.Dataset, q, 40)
			testutil.CheckRange(t, snap.Index, snap.Dataset, dup, 0)
		})
	}
}

// payload encodes t's snapshot payload.
func payload(t *Tree) []byte {
	w := store.NewWriter()
	if err := t.EncodeSnapshot(w); err != nil {
		panic(err)
	}
	return w.Bytes()
}

// firstInternal returns the root's first internal child, or the root.
func firstInternal(n *node) *node {
	for _, c := range n.children {
		if !c.n.leaf() {
			return c.n
		}
	}
	return n
}

// firstLeaf returns the leftmost leaf.
func firstLeaf(n *node) *node {
	for !n.leaf() {
		n = n.children[0].n
	}
	return n
}

// TestLoadRejectsCraftedPayloads feeds the decoder payloads that pass the
// snapshot CRC but describe no valid tree; each must fail the load, not
// the first query.
func TestLoadRejectsCraftedPayloads(t *testing.T) {
	ints := intVectors(300)
	vecs := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	churned := testutil.VectorDataset(300, 4, 100, core.L2{}, 8)
	bktOf := func() *Tree {
		idx, err := NewBKT(ints, Options{Seed: 3, MaxDistance: 100, LeafCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	fqtOf := func() *Tree {
		idx, err := NewFQT(ints, hfi(t, ints, 4), Options{MaxDistance: 100, LeafCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	mvptOf := func() *Tree {
		idx, err := NewMVPT(vecs, hfi(t, vecs, 4), Options{LeafCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	nilChild := func() []byte {
		w := store.NewWriter()
		w.U16(formatVersion)
		w.U32(5)  // arity
		w.U32(16) // leaf capacity
		w.I64(0)  // workers
		w.Ints([]int{0})
		w.Objects([]core.Object{vecs.Object(0)})
		w.U32(1)
		w.U8(tagInternal)
		w.Floats([]float64{0})
		w.Floats([]float64{1})
		w.U32(1)
		w.U8(0) // a nil child
		return w.Bytes()
	}
	cases := []struct {
		name string
		fam  *family
		ds   *core.Dataset
		data func() []byte
	}{
		{"tag 0", mvpt, vecs, nilChild},
		{"leaf id past the slots", mvpt, vecs, func() []byte {
			idx := mvptOf()
			firstLeaf(idx.root).ids[0] = 300
			return payload(idx)
		}},
		{"negative leaf id", fqt, ints, func() []byte {
			idx := fqtOf()
			firstLeaf(idx.root).ids[0] = -1
			return payload(idx)
		}},
		{"leaf id on a deleted slot", mvpt, churned, func() []byte {
			idx, err := NewMVPT(churned, hfi(t, churned, 4), Options{LeafCapacity: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := churned.Delete(int(firstLeaf(idx.root).ids[0])); err != nil {
				t.Fatal(err)
			}
			return payload(idx)
		}},
		{"internal node without children", bkt, ints, func() []byte {
			idx := bktOf()
			firstInternal(idx.root).children = []child{}
			return payload(idx)
		}},
		{"leaf capacity 0", fqt, ints, func() []byte {
			idx := fqtOf()
			idx.opts.LeafCapacity = 0
			return payload(idx)
		}},
		{"BKT pivot id past the slots", bkt, ints, func() []byte {
			idx := bktOf()
			firstInternal(idx.root).pivotID = 1 << 20
			return payload(idx)
		}},
		{"BKT pivot of another kind", bkt, ints, func() []byte {
			idx := bktOf()
			firstInternal(idx.root).pivot = core.IntVector{1, 2}
			return payload(idx)
		}},
		{"level pivot id past the slots", fqt, ints, func() []byte {
			idx := fqtOf()
			idx.pivotIDs[0] = 300
			return payload(idx)
		}},
		{"BKT bucket keys descending", bkt, ints, func() []byte {
			idx := bktOf()
			cs := idx.root.children
			cs[0], cs[1] = cs[1], cs[0]
			return payload(idx)
		}},
		{"FQT bucket key repeated", fqt, ints, func() []byte {
			idx := fqtOf()
			cs := idx.root.children
			cs[1].lo = cs[0].lo
			return payload(idx)
		}},
		{"MVPT band lo above hi", mvpt, vecs, func() []byte {
			idx := mvptOf()
			c := &idx.root.children[0]
			c.lo = c.hi + 1
			return payload(idx)
		}},
		{"MVPT band NaN", mvpt, vecs, func() []byte {
			idx := mvptOf()
			idx.root.children[1].hi = math.NaN()
			return payload(idx)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := c.fam.loadTree(c.ds, store.NewReader(c.data()))
			if err == nil {
				t.Fatal("crafted payload loaded")
			}
			t.Log(err)
		})
	}
	for _, idx := range []*Tree{bktOf(), fqtOf(), mvptOf()} {
		if _, _, err := idx.fam.loadTree(idx.ds, store.NewReader(payload(idx))); err != nil {
			t.Errorf("%s: a valid payload failed to load: %v", idx.Name(), err)
		}
	}
}

// fuzzKinds are the registered tree kinds FuzzTreePayload's first byte
// selects, with the loader each is registered with.
var fuzzKinds = []struct {
	kind string
	fam  *family
}{{"BKT", bkt}, {"FQT", fqt}, {"VPT", mvpt}, {"MVPT", mvpt}}

// FuzzTreePayload feeds arbitrary bytes to the registered tree loaders
// through store.NewReader and runs a range and a kNN query on whatever
// loads: a payload must fail to load or answer, never panic. The first
// input byte picks the kind, the second the dataset: integer vectors or
// words, the generators and options the payload goldens of
// internal/bench pin, at 200 objects so that mutating a payload stays
// cheap. The corpus is seeded with every family's payload over both.
func FuzzTreePayload(f *testing.F) {
	shapes := []*core.Dataset{testutil.IntVectorDataset(200, 4, 64, 7), testutil.WordDataset(200, 11)}
	maxD := []float64{80, 40}
	for si, ds := range shapes {
		pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
		if err != nil {
			f.Fatal(err)
		}
		for ki, fk := range fuzzKinds {
			var idx *Tree
			switch fk.kind {
			case "BKT":
				idx, err = NewBKT(ds, Options{Seed: 5, MaxDistance: maxD[si]})
			case "FQT":
				idx, err = NewFQT(ds, pv, Options{MaxDistance: maxD[si]})
			case "VPT":
				idx, err = NewMVPT(ds, pv, Options{Arity: 2})
			default:
				idx, err = NewMVPT(ds, pv, Options{})
			}
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte{byte(ki), byte(si)}, payload(idx)...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		fam := fuzzKinds[int(data[0])%len(fuzzKinds)].fam
		ds := shapes[int(data[1])%len(shapes)]
		idx, _, err := fam.loadTree(ds, store.NewReader(data[2:]))
		if err != nil {
			return
		}
		q := ds.Object(3)
		if _, err := idx.RangeSearch(q, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.KNNSearch(q, 5); err != nil {
			t.Fatal(err)
		}
	})
}
