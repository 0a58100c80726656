package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

func TestPagerVolumeRoundTrip(t *testing.T) {
	p := NewPager(256)
	var ids []PageID
	for i := 0; i < 5; i++ {
		id := p.Alloc()
		ids = append(ids, id)
		if err := p.Write(id, bytes.Repeat([]byte{byte(i + 1)}, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Free(ids[2])

	img := p.Serialize()
	q, err := LoadPager(img)
	if err != nil {
		t.Fatal(err)
	}
	if q.PageSize() != 256 || q.Pages() != 5 {
		t.Fatalf("reopened volume: pageSize=%d pages=%d", q.PageSize(), q.Pages())
	}
	for i, id := range ids {
		if i == 2 {
			continue
		}
		pg, err := q.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(i + 1)}, 100+i)
		if !bytes.Equal(pg[:len(want)], want) {
			t.Fatalf("page %d content mismatch after reopen", id)
		}
	}
	// The freed page must be reused first, as before serialization.
	if got := q.Alloc(); got != ids[2] {
		t.Fatalf("reopened volume allocated %d, want reuse of freed %d", got, ids[2])
	}
}

func TestLoadPagerRejectsCorruption(t *testing.T) {
	p := NewPager(128)
	id := p.Alloc()
	if err := p.Write(id, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	img := p.Serialize()

	cases := map[string]func([]byte) []byte{
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version":  func(b []byte) []byte { b[6] = 99; return b },
		"dirty flag":   func(b []byte) []byte { b[8] &^= 1; return b },
		"flipped page": func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-10] },
		"short header": func(b []byte) []byte { return b[:8] },
		"extra tail":   func(b []byte) []byte { return append(b, 0xAB) },
		"bogus pageSz": func(b []byte) []byte { b[9], b[10], b[11], b[12] = 0xFF, 0xFF, 0xFF, 0xFF; return b },
		"bogus nFree":  func(b []byte) []byte { b[17], b[18], b[19], b[20] = 0xFF, 0xFF, 0xFF, 0xFF; return b },
	}
	for name, corrupt := range cases {
		img2 := corrupt(append([]byte(nil), img...))
		if _, err := LoadPager(img2); err == nil {
			t.Errorf("%s: corrupt volume loaded without error", name)
		}
	}
}

// TestLoadPagerRejectsDuplicateFreePage: a free list naming one page
// twice would let two Allocs hand out the same page.
func TestLoadPagerRejectsDuplicateFreePage(t *testing.T) {
	p := NewPager(64)
	a, b := p.Alloc(), p.Alloc()
	p.Free(a)
	p.Free(b)
	img := p.Serialize()
	copy(img[25:29], img[21:25]) // free list: magic 6, version 2, flags 1, three u32s
	if _, err := LoadPager(img); err == nil {
		t.Fatal("a volume whose free list names a page twice loaded")
	}
}

func TestRAFRoundTrip(t *testing.T) {
	p := NewPager(64)
	r := NewRAF(p)
	payloads := map[int][]byte{
		1: []byte("first record"),
		2: bytes.Repeat([]byte("x"), 200), // spans pages
		7: []byte("third"),
	}
	for id, pl := range payloads {
		if _, err := r.Append(id, pl); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Delete(7); err != nil {
		t.Fatal(err)
	}

	q, err := LoadPager(p.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LoadRAF(q, r.Serialize(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 || r2.SizeBytes() != r.SizeBytes() {
		t.Fatalf("reopened RAF: len=%d size=%d, want len=2 size=%d", r2.Len(), r2.SizeBytes(), r.SizeBytes())
	}
	for _, id := range []int{1, 2} {
		got, err := r2.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[id]) {
			t.Fatalf("record %d mismatch after reopen", id)
		}
	}
	if _, err := r2.Read(7); err == nil {
		t.Fatal("deleted record resurrected by reopen")
	}
	// Appends continue where the log left off.
	if _, err := r2.Append(9, []byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Read(9)
	if err != nil || !bytes.Equal(got, []byte("post-reopen")) {
		t.Fatalf("post-reopen append failed: %v", err)
	}
}

func TestLoadRAFRejectsCorruption(t *testing.T) {
	p := NewPager(64)
	r := NewRAF(p)
	if _, err := r.Append(1, []byte("rec")); err != nil {
		t.Fatal(err)
	}
	st := r.Serialize()
	if _, err := LoadRAF(p, st, 2); err != nil {
		t.Fatalf("intact RAF state rejected: %v", err)
	}
	if _, err := LoadRAF(p, st[:3], 2); err == nil {
		t.Error("truncated RAF state loaded")
	}
	bad := append([]byte(nil), st...)
	bad[0] = 0xFF // absurd page count
	if _, err := LoadRAF(p, bad, 2); err == nil {
		t.Error("RAF state with absurd page count loaded")
	}
	// The directory is indexed by id: one corrupt id must fail the load,
	// not size a 64 GB directory. The single entry starts 16 bytes
	// before the end of the state.
	bad = append([]byte(nil), st...)
	binary.LittleEndian.PutUint32(bad[len(bad)-16:], 0xFFFFFFFF)
	if _, err := LoadRAF(p, bad, 2); err == nil {
		t.Error("RAF state with an id beyond the dataset loaded")
	}
	if _, err := LoadRAF(p, st, 1); err == nil {
		t.Error("RAF state with id 1 loaded against a one-object dataset")
	}
	// The same id twice: the second entry would silently shadow the first.
	dup := append([]byte(nil), st...)
	dup = append(dup, st[len(st)-16:]...)
	binary.LittleEndian.PutUint32(dup[len(st)-20:], 2) // nDir
	if _, err := LoadRAF(p, dup, 2); err == nil {
		t.Error("RAF state listing an id twice loaded")
	}
	// An offset whose end overflows int64 once passed the size check
	// and made the first Read index a page past the list.
	bad = append([]byte(nil), st...)
	binary.LittleEndian.PutUint64(bad[len(bad)-12:], math.MaxInt64-4)
	if _, err := LoadRAF(p, bad, 2); err == nil {
		t.Error("RAF state with a record offset near 2^63 loaded")
	}
	if _, err := LoadRAF(p, append(st, 0), 2); err == nil {
		t.Error("RAF state with a trailing byte loaded")
	}
}

// TestRAFSerializeDeterministic: the directory is written in id order,
// whatever order the records were appended and deleted in, so two
// snapshots of one RAF are equal byte for byte.
func TestRAFSerializeDeterministic(t *testing.T) {
	p := NewPager(64)
	r := NewRAF(p)
	for _, id := range []int{5, 0, 9, 3, 7, 1} {
		if _, err := r.Append(id, []byte{byte(id), 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Delete(9); err != nil {
		t.Fatal(err)
	}
	st := r.Serialize()
	if !bytes.Equal(st, r.Serialize()) {
		t.Fatal("two Serialize calls differ")
	}
	var ids []int
	for off := len(st) - 16*r.Len(); off < len(st); off += 16 {
		ids = append(ids, int(binary.LittleEndian.Uint32(st[off:])))
	}
	if !slices.Equal(ids, []int{0, 1, 3, 5, 7}) {
		t.Fatalf("directory written as %v, want id order", ids)
	}
	// A file with the entries in another order (what the map-backed
	// directory used to write) still loads.
	old := append([]byte(nil), st...)
	first, last := len(st)-16*r.Len(), len(st)-16
	copy(old[first:], st[last:])
	copy(old[last:], st[first:first+16])
	r2, err := LoadRAF(p, old, 10)
	if err != nil {
		t.Fatalf("reordered directory rejected: %v", err)
	}
	if !bytes.Equal(r2.Serialize(), st) {
		t.Fatal("reloaded RAF serializes differently")
	}
}

// FuzzVolume throws crafted bytes at LoadPager and at LoadRAF (over the
// crafted volume when it loads, else over a valid one): neither may
// panic, nor may reading every record of a RAF that loads, and a volume
// or RAF state that loads must round-trip — serializing it and loading
// that again gives the same bytes — and hand out each free page once.
func FuzzVolume(f *testing.F) {
	const idLimit = 16
	base := NewPager(64)
	raf := NewRAF(base)
	for id := range 6 {
		if _, err := raf.Append(id, bytes.Repeat([]byte{byte(id)}, 10+30*id)); err != nil {
			f.Fatal(err)
		}
	}
	if err := raf.Delete(3); err != nil {
		f.Fatal(err)
	}
	a, b := base.Alloc(), base.Alloc()
	base.Free(a)
	base.Free(b)
	img, state := base.Serialize(), raf.Serialize()
	f.Add(img, state)
	f.Add(img[:len(img)/2], state[:len(state)/2])
	f.Add([]byte(volumeMagic), []byte{})

	f.Fuzz(func(t *testing.T, img, state []byte) {
		p, err := LoadPager(img)
		if err == nil {
			once := p.Serialize()
			q, err := LoadPager(once)
			if err != nil {
				t.Fatalf("a serialized volume does not load: %v", err)
			}
			if !bytes.Equal(q.Serialize(), once) {
				t.Fatal("volume round trip changed the image")
			}
			handed := make(map[PageID]bool)
			for range len(q.freeList) {
				if id := q.Alloc(); handed[id] {
					t.Fatalf("free page %d handed out twice", id)
				} else {
					handed[id] = true
				}
			}
		} else if p, err = LoadPager(base.Serialize()); err != nil {
			t.Fatal(err)
		}
		r, err := LoadRAF(p, state, idLimit)
		if err != nil {
			return
		}
		for id := range idLimit {
			_, _ = r.Read(id)
		}
		once := r.Serialize()
		again, err := LoadRAF(p, once, idLimit)
		if err != nil {
			t.Fatalf("a serialized RAF state does not load: %v", err)
		}
		if !bytes.Equal(again.Serialize(), once) {
			t.Fatal("RAF state round trip changed the bytes")
		}
	})
}
