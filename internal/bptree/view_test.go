package bptree

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// decodePage is the reference node parser the views are checked
// against: the page layout read field by field into fresh slices, with
// no code shared with View.
func decodePage(buf []byte) *Node {
	n := &Node{}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	if buf[0] == 0 {
		n.Leaf = true
		n.Next = store.PageID(binary.LittleEndian.Uint32(buf[3:7]))
		for i, off := 0, 7; i < count; i, off = i+1, off+16 {
			n.Keys = append(n.Keys, binary.LittleEndian.Uint64(buf[off:]))
			n.Vals = append(n.Vals, binary.LittleEndian.Uint64(buf[off+8:]))
		}
		return n
	}
	for i, off := 0, 3; i < count; i, off = i+1, off+28 {
		n.Keys = append(n.Keys, binary.LittleEndian.Uint64(buf[off:]))
		n.Children = append(n.Children, store.PageID(binary.LittleEndian.Uint32(buf[off+8:])))
		n.AuxLo = append(n.AuxLo, binary.LittleEndian.Uint64(buf[off+12:]))
		n.AuxHi = append(n.AuxHi, binary.LittleEndian.Uint64(buf[off+20:]))
	}
	return n
}

// checkViews walks every node reachable from the root and compares the
// view accessors, and the decoded form built from them, with decodePage.
func checkViews(t *testing.T, tr *Tree, p *store.Pager) (nodes int) {
	t.Helper()
	var walk func(pid store.PageID)
	walk = func(pid store.PageID) {
		nodes++
		buf, err := p.Read(pid)
		if err != nil {
			t.Fatal(err)
		}
		want := decodePage(buf)
		v, err := tr.View(pid)
		if err != nil {
			t.Fatalf("View(%d): %v", pid, err)
		}
		if v.Leaf() != want.Leaf || v.Len() != len(want.Keys) {
			t.Fatalf("page %d: view leaf=%v len=%d, want leaf=%v len=%d", pid, v.Leaf(), v.Len(), want.Leaf, len(want.Keys))
		}
		for i := range want.Keys {
			if v.key(i) != want.Keys[i] {
				t.Fatalf("page %d: key(%d)=%d, want %d", pid, i, v.key(i), want.Keys[i])
			}
			if want.Leaf {
				if k, x := v.Record(i); k != want.Keys[i] || x != want.Vals[i] {
					t.Fatalf("page %d: Record(%d)=(%d,%d), want (%d,%d)", pid, i, k, x, want.Keys[i], want.Vals[i])
				}
			} else if c, lo, hi := v.Child(i); c != want.Children[i] || lo != want.AuxLo[i] || hi != want.AuxHi[i] {
				t.Fatalf("page %d: Child(%d)=(%d,%d,%d), want (%d,%d,%d)", pid, i, c, lo, hi, want.Children[i], want.AuxLo[i], want.AuxHi[i])
			}
		}
		if want.Leaf && v.Next() != want.Next {
			t.Fatalf("page %d: Next=%d, want %d", pid, v.Next(), want.Next)
		}
		got, err := tr.readNode(pid)
		if err != nil {
			t.Fatal(err)
		}
		if got.Leaf != want.Leaf || got.Next != want.Next && want.Leaf ||
			!slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Vals, want.Vals) ||
			!slices.Equal(got.Children, want.Children) ||
			!slices.Equal(got.AuxLo, want.AuxLo) || !slices.Equal(got.AuxHi, want.AuxHi) {
			t.Fatalf("page %d: readNode = %+v, want %+v", pid, got, want)
		}
		for _, c := range want.Children {
			walk(c)
		}
	}
	walk(tr.Root())
	return nodes
}

// TestViewMatchesDecodedNode: on random trees — after inserts that split
// leaves and internal nodes, after deletes that leave nodes underfull,
// and after a bulk load — every accessor of every node's view equals
// the reference parse of the page, field for field.
func TestViewMatchesDecodedNode(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := store.NewPager(256) // 15 records per leaf, 9 children per node
		tr := New(p, minMaxAug{})
		type rec struct{ k, v uint64 }
		var live []rec
		for i := 0; i < 1500; i++ {
			r := rec{uint64(rng.Intn(400)), rng.Uint64()}
			if err := tr.Insert(r.k, r.v); err != nil {
				t.Fatal(err)
			}
			live = append(live, r)
		}
		if nodes := checkViews(t, tr, p); nodes < 100 {
			t.Fatalf("only %d nodes; the tree should be deep", nodes)
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, r := range live[:1100] {
			if err := tr.Delete(r.k, r.v); err != nil {
				t.Fatalf("Delete(%d,%d): %v", r.k, r.v, err)
			}
		}
		checkViews(t, tr, p)
		var bulk []Record
		for i := 0; i < 700; i++ {
			bulk = append(bulk, Record{Key: uint64(i / 3), Val: rng.Uint64()})
		}
		if err := tr.BulkLoad(bulk); err != nil {
			t.Fatal(err)
		}
		checkViews(t, tr, p)
	}
}

// TestViewRejectsCorruptCount: a page whose entry count exceeds the node
// capacity (or an internal node claiming no children) is an error on
// every read path, not an out-of-range panic.
func TestViewRejectsCorruptCount(t *testing.T) {
	p := store.NewPager(256)
	tr := New(p, nil)
	for i := uint64(0); i < 200; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	leaf, _, err := tr.LeafFor(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		pid   store.PageID
		kind  byte
		count uint16
	}{
		"leaf over capacity":     {leaf, 0, uint16(tr.leafCap + 1)},
		"leaf count 0xFFFF":      {leaf, 0, 0xFFFF},
		"internal over capacity": {tr.Root(), 1, uint16(tr.intCap + 1)},
		"internal without child": {tr.Root(), 1, 0},
	} {
		buf, err := p.Read(c.pid)
		if err != nil {
			t.Fatal(err)
		}
		saved := slices.Clone(buf)
		bad := slices.Clone(buf)
		bad[0] = c.kind
		binary.LittleEndian.PutUint16(bad[1:3], c.count)
		if err := p.Write(c.pid, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.View(c.pid); err == nil {
			t.Errorf("%s: View succeeded", name)
		}
		if err := tr.RangeScan(0, ^uint64(0), func(k, v uint64) bool { return true }); err == nil {
			t.Errorf("%s: RangeScan succeeded", name)
		}
		if err := tr.Delete(0, 0); err == nil {
			t.Errorf("%s: Delete succeeded", name)
		}
		if err := tr.Insert(0, 1); err == nil {
			t.Errorf("%s: Insert succeeded", name)
		}
		if err := p.Write(c.pid, saved); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, tr, 0, ^uint64(0)); len(got) != 200 {
		t.Fatalf("restored tree scans %d keys, want 200", len(got))
	}
}

// TestViewAllocs is the runtime witness of the noalloc annotations: a
// scan over views allocates nothing.
func TestViewAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	p := store.NewPager(512)
	tr := New(p, nil)
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var sum uint64
	visit := func(k, v uint64) bool { sum += k + v; return true }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.RangeScan(100, 900, visit); err != nil {
			panic(err)
		}
		if _, err := tr.Height(); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Fatalf("RangeScan + Height allocated %.1f times; want 0", allocs)
	}
}
