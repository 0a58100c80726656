package bptree_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/omni"
	"metricindex/internal/persist"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// bplus is one B+-tree index's snapshot payload over a small
// integer-vector dataset.
type bplus struct {
	kind    string
	ds      *core.Dataset
	payload []byte
}

// newBPlus builds kind ("SPB-tree", "M-index", "M-index*" or
// "OmniB+-tree") over n integer vectors on 256-byte pages and encodes
// its payload. The M-indexes split at 32 objects, so their payloads
// carry a cluster tree two levels deep.
func newBPlus(t testing.TB, kind string, n int) bplus {
	t.Helper()
	ds := testutil.IntVectorDataset(n, 4, 64, 7)
	pv := testutil.SpreadPivots(ds, 3)
	p := store.NewPager(256)
	var idx interface {
		EncodeSnapshot(w *store.Writer) error
	}
	var err error
	switch kind {
	case "SPB-tree":
		idx, err = spb.New(ds, p, pv, spb.Options{MaxDistance: 64})
	case "M-index", "M-index*":
		idx, err = spb.NewMIndex(ds, p, pv, spb.MIndexOptions{Star: kind == "M-index*", MaxNum: 32, MaxDistance: 64})
	default:
		idx, err = omni.NewBPlus(ds, p, pv, 0)
	}
	if err != nil {
		t.Fatalf("%s: build: %v", kind, err)
	}
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", kind, err)
	}
	return bplus{kind, ds, w.Bytes()}
}

// query loads payload and, when the loader takes it, runs one range and
// one kNN query, which must not panic.
func (b bplus) query(payload []byte) {
	load, _ := persist.LoaderFor(b.kind)
	idx, _, err := load(b.ds, store.NewReader(payload))
	if err != nil {
		return
	}
	q := b.ds.Object(0)
	_, _ = idx.RangeSearch(q, 8)
	_, _ = idx.KNNSearch(q, 5)
}

// FuzzBPlusPayload runs the keyed B+-tree loaders (SPB-tree, M-index,
// M-index*) and the OmniB+-tree's over a payload whose volume has one
// page replaced (pid, page; the volume's checksum is recomputed, so the
// page reaches the B+-tree) and whose state after the volume is
// arbitrary, then one range and one kNN query:
// no input may panic or loop.
func FuzzBPlusPayload(f *testing.F) {
	var trees []bplus
	for i, kind := range []string{"SPB-tree", "OmniB+-tree", "M-index", "M-index*"} {
		b := newBPlus(f, kind, 300)
		trees = append(trees, b)
		r := store.NewReader(b.payload)
		r.U16()
		vol, err := store.LoadPager(r.Blob())
		if err != nil {
			f.Fatal(err)
		}
		state := b.payload[len(b.payload)-r.Remaining():]
		for pid := range min(vol.Pages(), 4) {
			page, err := vol.Read(store.PageID(pid))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), uint16(pid), append([]byte(nil), page...), state)
		}
		f.Add(uint8(i), uint16(0), []byte{1, 1, 0}, state)
	}
	f.Fuzz(func(t *testing.T, kind uint8, pid uint16, page, state []byte) {
		b := trees[int(kind)%len(trees)]
		r := store.NewReader(b.payload)
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
		b.query(append(w.Bytes(), state...))
	})
}
