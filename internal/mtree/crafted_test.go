package mtree_test

import (
	"encoding/binary"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/persist"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// snapshotIndex is a region-tree index that writes a snapshot payload.
type snapshotIndex interface {
	core.Index
	EncodeSnapshot(w *store.Writer) error
}

// region is one region-tree index over a small integer-vector dataset,
// with the pager its payload images.
type region struct {
	kind  string
	ds    *core.Dataset
	pager *store.Pager
	idx   snapshotIndex
}

// newRegion builds kind ("PM-tree", "CPT" or "OmniR-tree") over n
// integer vectors on 256-byte pages.
func newRegion(t testing.TB, kind string, n int) region {
	t.Helper()
	ds := testutil.IntVectorDataset(n, 4, 64, 7)
	pv := testutil.SpreadPivots(ds, 3)
	p := store.NewPager(256)
	var idx snapshotIndex
	var err error
	switch kind {
	case "PM-tree":
		idx, err = mtree.NewPMTree(ds, p, pv, 7, 0)
	case "CPT":
		idx, err = table.NewCPT(ds, p, pv, 7, 0)
	default:
		idx, err = mtree.NewOmniRTree(ds, p, pv, 64, 0)
	}
	if err != nil {
		t.Fatalf("%s: build: %v", kind, err)
	}
	return region{kind, ds, p, idx}
}

// payload encodes the index's snapshot payload.
func (g region) payload(t testing.TB) []byte {
	t.Helper()
	w := store.NewWriter()
	if err := g.idx.EncodeSnapshot(w); err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", g.kind, err)
	}
	return w.Bytes()
}

// root reads the tree's root page off the payload: past the version and
// the volume, the M-tree state's header, or the Omni base.
func (g region) root(t testing.TB) store.PageID {
	t.Helper()
	r := store.NewReader(g.payload(t))
	r.U16()
	r.Blob()
	if g.kind == "OmniR-tree" {
		r.Blob()
		r.Ints()
		r.Objects(nil)
	} else {
		r.U16()
		r.U32()
		r.I64()
		r.Objects(nil)
	}
	root := store.PageID(r.U32())
	if err := r.Err(); err != nil {
		t.Fatalf("%s: reading the root: %v", g.kind, err)
	}
	return root
}

// craft rewrites the root page through edit and returns the payload.
func (g region) craft(t testing.TB, edit func(page []byte)) []byte {
	t.Helper()
	root := g.root(t)
	buf, err := g.pager.Read(root)
	if err != nil {
		t.Fatal(err)
	}
	page := append([]byte(nil), buf...)
	edit(page)
	if err := g.pager.Write(root, page); err != nil {
		t.Fatal(err)
	}
	return g.payload(t)
}

// query loads payload and, when the loader takes it, runs one range and
// one kNN query, which must not panic; it reports whether the load took.
func (g region) query(payload []byte) bool {
	load, _ := persist.LoaderFor(g.kind)
	idx, _, err := load(g.ds, store.NewReader(payload))
	if err != nil {
		return false
	}
	q := g.ds.Object(0)
	_, _ = idx.RangeSearch(q, 8)
	_, _ = idx.KNNSearch(q, 5)
	return true
}

// TestCraftedRTreeLeafCount: an R-tree leaf counting 65 535 entries on a
// page that holds a few must be rejected at load, not panic a query.
func TestCraftedRTreeLeafCount(t *testing.T) {
	g := newRegion(t, "OmniR-tree", 5)
	payload := g.craft(t, func(page []byte) {
		if page[0] != 0 {
			t.Fatal("the five-object R-tree's root is not a leaf")
		}
		binary.LittleEndian.PutUint16(page[1:], 0xFFFF)
	})
	if g.query(payload) {
		t.Fatal("loader accepted a leaf counting 65535 entries")
	}
}

// TestCraftedMTreeObjectLength: an M-tree leaf entry whose object length
// runs past the page must be rejected at load, not panic a query.
func TestCraftedMTreeObjectLength(t *testing.T) {
	g := newRegion(t, "PM-tree", 3)
	payload := g.craft(t, func(page []byte) {
		if page[0] != 0 {
			t.Fatal("the three-object PM-tree's root is not a leaf")
		}
		// kind, count | id, parent distance, three pivot distances | length
		binary.LittleEndian.PutUint32(page[3+4+8+8*3:], 0xFFFFFFF0)
	})
	if g.query(payload) {
		t.Fatal("loader accepted an object running past its page")
	}
}

// TestCraftedRTreeSelfChild: an R-tree routing node that is its own child
// must be rejected at load, not recurse until the stack overflows.
func TestCraftedRTreeSelfChild(t *testing.T) {
	g := newRegion(t, "OmniR-tree", 200)
	root := g.root(t)
	payload := g.craft(t, func(page []byte) {
		if page[0] != 1 {
			t.Fatal("the 200-object R-tree's root is not a routing node")
		}
		binary.LittleEndian.PutUint32(page[3:], uint32(root))
	})
	if g.query(payload) {
		t.Fatal("loader accepted a routing node that is its own child")
	}
}

// FuzzRegionTreePayload runs the PM-tree, CPT and OmniR-tree loaders over
// a payload whose volume has one page replaced (pid, page; the volume's
// checksum is recomputed, so the page reaches the tree) and whose state
// after the volume is arbitrary, then one range and one kNN query: no
// input may panic.
func FuzzRegionTreePayload(f *testing.F) {
	var regions []region
	var payloads [][]byte
	for i, kind := range []string{"PM-tree", "CPT", "OmniR-tree"} {
		g := newRegion(f, kind, 120)
		payload := g.payload(f)
		regions, payloads = append(regions, g), append(payloads, payload)
		r := store.NewReader(payload)
		r.U16()
		r.Blob()
		state := payload[len(payload)-r.Remaining():]
		root := g.root(f)
		page, err := g.pager.Read(root)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), uint16(root), append([]byte(nil), page...), state)
		f.Add(uint8(i), uint16(0), []byte{1, 1, 0}, state)
	}
	f.Fuzz(func(t *testing.T, kind uint8, pid uint16, page, state []byte) {
		i := int(kind) % len(regions)
		r := store.NewReader(payloads[i])
		version := r.U16()
		vol, err := store.LoadPager(r.Blob())
		if err != nil {
			t.Fatal(err)
		}
		if int(pid) < vol.Pages() {
			if err := vol.Write(store.PageID(pid), page[:min(len(page), vol.PageSize())]); err != nil {
				t.Fatal(err)
			}
		}
		w := store.NewWriter()
		w.U16(version)
		w.Blob(vol.Serialize())
		regions[i].query(append(w.Bytes(), state...))
	})
}
