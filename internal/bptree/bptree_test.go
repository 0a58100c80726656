package bptree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"metricindex/internal/store"
)

func collect(t *testing.T, tr *Tree, lo, hi uint64) []uint64 {
	t.Helper()
	var keys []uint64
	if err := tr.RangeScan(lo, hi, func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatalf("RangeScan: %v", err)
	}
	return keys
}

func TestInsertAndScanSorted(t *testing.T) {
	p := store.NewPager(512) // tiny pages force deep trees
	tr := New(p, nil)
	rng := rand.New(rand.NewSource(1))
	want := make([]uint64, 0, 5000)
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(100000))
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := collect(t, tr, 0, ^uint64(0))
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key %d: got %d want %d", i, got[i], want[i])
		}
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if h, _ := tr.Height(); h < 3 {
		t.Fatalf("expected height >= 3 on 512B pages, got %d", h)
	}
}

func TestRangeScanBounds(t *testing.T) {
	p := store.NewPager(512)
	tr := New(p, nil)
	for k := uint64(0); k < 1000; k += 2 { // even keys only
		if err := tr.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, tr, 100, 200)
	if len(got) != 51 {
		t.Fatalf("scan [100,200] returned %d keys, want 51", len(got))
	}
	if got[0] != 100 || got[len(got)-1] != 200 {
		t.Fatalf("scan bounds wrong: %d..%d", got[0], got[len(got)-1])
	}
	if got := collect(t, tr, 101, 101); len(got) != 0 {
		t.Fatalf("scan of absent key returned %v", got)
	}
	if got := collect(t, tr, 2000, 3000); len(got) != 0 {
		t.Fatalf("scan beyond max returned %v", got)
	}
}

// TestRangeScanReadsEachPageOnce: a scan reads every page of its descent
// and every leaf it visits once — the first leaf, where the descent ends,
// included.
func TestRangeScanReadsEachPageOnce(t *testing.T) {
	p := store.NewPager(512)
	tr := New(p, nil)
	for k := uint64(0); k < 10; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	p.ResetStats()
	if got := collect(t, tr, 0, ^uint64(0)); len(got) != 10 {
		t.Fatalf("scan returned %d keys, want 10", len(got))
	}
	if got := p.Reads(); got != 1 {
		t.Fatalf("scan of a one-leaf tree read %d pages, want 1", got)
	}

	for k := uint64(10); k < 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for pid := tr.Root(); pid != store.InvalidPage; {
		v, err := tr.View(pid)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Leaf() {
			pid, _, _ = v.Child(0)
			continue
		}
		leaves++
		pid = v.Next()
	}
	p.ResetStats()
	if got := collect(t, tr, 0, ^uint64(0)); len(got) != 2000 {
		t.Fatalf("scan returned %d keys, want 2000", len(got))
	}
	if got, want := p.Reads(), int64(h-1+leaves); got != want {
		t.Fatalf("full scan of a height-%d tree with %d leaves read %d pages, want %d", h, leaves, got, want)
	}
}

// TestDeleteReadsLeafOnce witnesses that a delete reads the leaf
// LeafFor descended to once: the record is found on the view the
// descent returned.
func TestDeleteReadsLeafOnce(t *testing.T) {
	p := store.NewPager(512)
	tr := New(p, nil)
	for k := uint64(0); k < 10; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	p.ResetStats()
	if err := tr.Delete(7, 7); err != nil {
		t.Fatal(err)
	}
	if got := p.Reads(); got != 1 {
		t.Fatalf("delete in a one-leaf tree read %d pages, want 1", got)
	}
	if err := tr.Delete(7, 7); err == nil {
		t.Fatal("a second delete of the record should fail")
	}
	if got := collect(t, tr, 0, ^uint64(0)); len(got) != 9 {
		t.Fatalf("scan after the delete returned %d keys, want 9", len(got))
	}
}

func TestDuplicateKeys(t *testing.T) {
	p := store.NewPager(512)
	tr := New(p, nil)
	for v := uint64(0); v < 300; v++ {
		if err := tr.Insert(42, v); err != nil {
			t.Fatal(err)
		}
	}
	var vals []uint64
	tr.RangeScan(42, 42, func(k, v uint64) bool {
		vals = append(vals, v)
		return true
	})
	if len(vals) != 300 {
		t.Fatalf("got %d duplicates, want 300", len(vals))
	}
	// Delete a specific (key, val) pair.
	if err := tr.Delete(42, 123); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	vals = vals[:0]
	tr.RangeScan(42, 42, func(k, v uint64) bool {
		vals = append(vals, v)
		return true
	})
	if len(vals) != 299 {
		t.Fatalf("after delete got %d, want 299", len(vals))
	}
	for _, v := range vals {
		if v == 123 {
			t.Fatal("deleted value still present")
		}
	}
}

func TestDeleteMissing(t *testing.T) {
	p := store.NewPager(512)
	tr := New(p, nil)
	tr.Insert(1, 1)
	if err := tr.Delete(2, 2); err == nil {
		t.Fatal("Delete of absent key should fail")
	}
	if err := tr.Delete(1, 99); err == nil {
		t.Fatal("Delete of absent value should fail")
	}
}

func TestInsertDeleteInterleavedQuick(t *testing.T) {
	// Property: after any sequence of inserts and deletes the tree scans
	// exactly the surviving multiset in sorted order.
	f := func(ops []uint16) bool {
		p := store.NewPager(512)
		tr := New(p, nil)
		ref := map[uint64]int{}
		var refKeys []uint64
		for i, op := range ops {
			k := uint64(op % 97)
			if i%3 == 2 && ref[k] > 0 {
				if err := tr.Delete(k, k); err != nil {
					return false
				}
				ref[k]--
			} else {
				if err := tr.Insert(k, k); err != nil {
					return false
				}
				ref[k]++
			}
		}
		refKeys = refKeys[:0]
		for k, c := range ref {
			for j := 0; j < c; j++ {
				refKeys = append(refKeys, k)
			}
		}
		sort.Slice(refKeys, func(i, j int) bool { return refKeys[i] < refKeys[j] })
		var got []uint64
		tr.RangeScan(0, ^uint64(0), func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(refKeys) {
			return false
		}
		for i := range got {
			if got[i] != refKeys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// minMaxAug tracks min/max value per subtree, a simple monotone augmenter.
type minMaxAug struct{}

func (minMaxAug) Leaf(k, v uint64) (uint64, uint64) { return v, v }
func (minMaxAug) Merge(l1, h1, l2, h2 uint64) (uint64, uint64) {
	if l2 < l1 {
		l1 = l2
	}
	if h2 > h1 {
		h1 = h2
	}
	return l1, h1
}

func TestAugmentationMaintained(t *testing.T) {
	p := store.NewPager(512)
	tr := New(p, minMaxAug{})
	rng := rand.New(rand.NewSource(5))
	minV, maxV := ^uint64(0), uint64(0)
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(100000))
		v := uint64(rng.Intn(1000000))
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.readNode(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.Leaf {
		t.Fatal("expected internal root after 3000 inserts on 512B pages")
	}
	gotLo, gotHi := ^uint64(0), uint64(0)
	for i := range root.AuxLo {
		if root.AuxLo[i] < gotLo {
			gotLo = root.AuxLo[i]
		}
		if root.AuxHi[i] > gotHi {
			gotHi = root.AuxHi[i]
		}
	}
	if gotLo != minV || gotHi != maxV {
		t.Fatalf("root aux [%d,%d], want [%d,%d]", gotLo, gotHi, minV, maxV)
	}
	// Verify recursively: every internal entry's aux covers its child's.
	var check func(pid store.PageID) (uint64, uint64)
	check = func(pid store.PageID) (uint64, uint64) {
		n, err := tr.readNode(pid)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			lo, hi := ^uint64(0), uint64(0)
			for _, v := range n.Vals {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			return lo, hi
		}
		lo, hi := ^uint64(0), uint64(0)
		for i := range n.Children {
			clo, chi := check(n.Children[i])
			if clo < n.AuxLo[i] || chi > n.AuxHi[i] {
				t.Fatalf("child aux [%d,%d] exceeds stored [%d,%d]", clo, chi, n.AuxLo[i], n.AuxHi[i])
			}
			if n.AuxLo[i] < lo {
				lo = n.AuxLo[i]
			}
			if n.AuxHi[i] > hi {
				hi = n.AuxHi[i]
			}
		}
		return lo, hi
	}
	check(tr.Root())
}

func TestKeyFromFloatOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		ka, kb := KeyFromFloat(a), KeyFromFloat(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPageAccountingCounts(t *testing.T) {
	p := store.NewPager(512)
	tr := New(p, nil)
	for i := uint64(0); i < 2000; i++ {
		tr.Insert(i, i)
	}
	p.ResetStats()
	collect(t, tr, 500, 600)
	if p.PageAccesses() == 0 {
		t.Fatal("range scan must cost page accesses")
	}
	full := p.PageAccesses()
	p.ResetStats()
	collect(t, tr, 500, 510)
	if p.PageAccesses() >= full {
		t.Fatalf("narrow scan (%d PA) should cost less than wide scan (%d PA)", p.PageAccesses(), full)
	}
}
