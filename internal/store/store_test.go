package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"metricindex/internal/core"
)

func TestPagerAllocReadWrite(t *testing.T) {
	p := NewPager(256)
	a := p.Alloc()
	b := p.Alloc()
	if a == b {
		t.Fatal("distinct allocations must differ")
	}
	if err := p.Write(a, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf, err := p.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "hello" {
		t.Fatalf("read %q", buf[:5])
	}
	for _, x := range buf[5:] {
		if x != 0 {
			t.Fatal("page tail must be zero-padded")
		}
	}
	if _, err := p.Read(PageID(99)); err == nil {
		t.Fatal("read of unallocated page must fail")
	}
	if err := p.Write(a, make([]byte, 257)); err == nil {
		t.Fatal("oversized write must fail")
	}
}

func TestPagerAccounting(t *testing.T) {
	p := NewPager(256)
	a := p.Alloc()
	p.Write(a, []byte{1})
	p.Read(a)
	p.Read(a)
	if got := p.PageAccesses(); got != 3 {
		t.Fatalf("PA=%d, want 3 (1 write + 2 uncached reads)", got)
	}
	if p.Reads() != 2 || p.Writes() != 1 {
		t.Fatalf("reads=%d writes=%d", p.Reads(), p.Writes())
	}
	p.ResetStats()
	if p.PageAccesses() != 0 {
		t.Fatal("reset failed")
	}
}

func TestPagerLRUCache(t *testing.T) {
	p := NewPager(256)
	p.SetCacheBytes(2 * 256) // room for 2 pages
	a, b, c := p.Alloc(), p.Alloc(), p.Alloc()
	p.Write(a, []byte{1})
	p.Write(b, []byte{2})
	p.Write(c, []byte{3})
	p.ResetStats()
	p.Read(c) // hit (most recent)
	p.Read(b) // hit
	if got := p.PageAccesses(); got != 0 {
		t.Fatalf("expected cache hits, PA=%d", got)
	}
	p.Read(a) // miss (evicted)
	if got := p.PageAccesses(); got != 1 {
		t.Fatalf("expected one miss, PA=%d", got)
	}
	// a's insertion evicted c.
	p.ResetStats()
	p.Read(c)
	if got := p.PageAccesses(); got != 1 {
		t.Fatalf("expected c evicted, PA=%d", got)
	}
	p.DropCache()
	p.ResetStats()
	p.Read(b)
	if p.PageAccesses() != 1 {
		t.Fatal("DropCache must clear entries")
	}
}

func TestPagerFreeReuse(t *testing.T) {
	p := NewPager(128)
	a := p.Alloc()
	p.Write(a, []byte{42})
	p.Free(a)
	b := p.Alloc()
	if a != b {
		t.Fatalf("freed page not reused: %d vs %d", a, b)
	}
	buf, _ := p.Read(b)
	if buf[0] != 0 {
		t.Fatal("reused page must be zeroed")
	}
	if p.DiskBytes() != 128 {
		t.Fatalf("DiskBytes=%d", p.DiskBytes())
	}
}

func TestObjectCodecRoundTrip(t *testing.T) {
	objs := []core.Object{
		core.Vector{1.5, -2.25, 1e300, 0},
		core.Vector{},
		core.IntVector{1, -5, 1 << 30},
		core.Word("hello"),
		core.Word(""),
	}
	for _, o := range objs {
		buf := EncodeObject(nil, o)
		if len(buf) != EncodedObjectSize(o) {
			t.Fatalf("size mismatch for %v: %d vs %d", o, len(buf), EncodedObjectSize(o))
		}
		got, used, err := DecodeObject(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", o, err)
		}
		if used != len(buf) {
			t.Fatalf("decode consumed %d of %d", used, len(buf))
		}
		m := pickMetric(o)
		if m != nil && m.Distance(o, got) != 0 {
			t.Fatalf("round trip changed %v -> %v", o, got)
		}
	}
}

func pickMetric(o core.Object) core.Metric {
	switch o.(type) {
	case core.Vector:
		if len(o.(core.Vector)) == 0 {
			return nil
		}
		return core.L2{}
	case core.IntVector:
		return core.IntLInf{}
	case core.Word:
		return core.Edit{}
	}
	return nil
}

func TestObjectCodecErrors(t *testing.T) {
	if _, _, err := DecodeObject(nil); err == nil {
		t.Fatal("empty buffer must fail")
	}
	if _, _, err := DecodeObject([]byte{9, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown tag must fail")
	}
	buf := EncodeObject(nil, core.Vector{1, 2, 3})
	if _, _, err := DecodeObject(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated vector must fail")
	}
}

func TestFloatsCodec(t *testing.T) {
	f := func(a, b, c float64) bool {
		buf := EncodeFloats(nil, []float64{a, b, c})
		got, used, err := DecodeFloats(nil, buf, 3)
		if err != nil || used != 24 {
			return false
		}
		return got[0] == a && got[1] == b && got[2] == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFloats(nil, []byte{1, 2}, 1); err == nil {
		t.Fatal("short buffer must fail")
	}
}

func TestRAFAppendRead(t *testing.T) {
	p := NewPager(64) // tiny pages force records to span pages
	r := NewRAF(p)
	rng := rand.New(rand.NewSource(5))
	payloads := make(map[int][]byte)
	for id := 0; id < 50; id++ {
		n := 1 + rng.Intn(200)
		b := make([]byte, n)
		rng.Read(b)
		payloads[id] = b
		if _, err := r.Append(id, b); err != nil {
			t.Fatalf("Append(%d): %v", id, err)
		}
	}
	for id, want := range payloads {
		got, err := r.Read(id)
		if err != nil {
			t.Fatalf("Read(%d): %v", id, err)
		}
		if string(got) != string(want) {
			t.Fatalf("Read(%d) mismatch (%d vs %d bytes)", id, len(got), len(want))
		}
	}
	if r.Len() != 50 {
		t.Fatalf("Len=%d", r.Len())
	}
}

func TestRAFSpanningRecordPACost(t *testing.T) {
	p := NewPager(64)
	r := NewRAF(p)
	big := make([]byte, 300) // spans ~5 pages
	if _, err := r.Append(1, big); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	if _, err := r.Read(1); err != nil {
		t.Fatal(err)
	}
	if pa := p.PageAccesses(); pa < 5 {
		t.Fatalf("300-byte record on 64-byte pages must cost >=5 PA, got %d", pa)
	}
}

func TestRAFOffsetsAndIDs(t *testing.T) {
	p := NewPager(128)
	r := NewRAF(p)
	off1, _ := r.Append(7, []byte("abc"))
	off2, _ := r.Append(9, []byte("defgh"))
	if id, _ := r.IDAt(off1); id != 7 {
		t.Fatalf("IDAt(off1)=%d", id)
	}
	if id, _ := r.IDAt(off2); id != 9 {
		t.Fatalf("IDAt(off2)=%d", id)
	}
	got, err := r.ReadAt(off2)
	if err != nil || string(got) != "defgh" {
		t.Fatalf("ReadAt: %q %v", got, err)
	}
	if off, ok := r.Offset(7); !ok || off != off1 {
		t.Fatal("Offset lookup failed")
	}
}

func TestRAFDeleteAndErrors(t *testing.T) {
	p := NewPager(128)
	r := NewRAF(p)
	r.Append(1, []byte("x"))
	if _, err := r.Append(1, []byte("y")); err == nil {
		t.Fatal("duplicate append must fail")
	}
	if err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(1); err == nil {
		t.Fatal("double delete must fail")
	}
	if _, err := r.Read(1); err == nil {
		t.Fatal("read of deleted record must fail")
	}
	if _, err := r.ReadAt(99999); err == nil {
		t.Fatal("out-of-range ReadAt must fail")
	}
}

// TestPagerSubPageCacheRoundsUp is the regression test for the silent
// cache disable: a positive cache size smaller than one page must still
// cache one page, not truncate the capacity to zero.
func TestPagerSubPageCacheRoundsUp(t *testing.T) {
	p := NewPager(4096)
	p.SetCacheBytes(2048) // smaller than a page: round up to 1 page
	a := p.Alloc()
	p.Write(a, []byte{1})
	p.ResetStats()
	p.Read(a)
	p.Read(a)
	if got := p.PageAccesses(); got != 0 {
		t.Fatalf("sub-page cache was disabled: PA=%d after cached reads", got)
	}
	// 5000 bytes on 4096-byte pages must hold 2 pages (ceiling), not 1.
	p.SetCacheBytes(5000)
	b := p.Alloc()
	p.Write(a, []byte{1})
	p.Write(b, []byte{2})
	p.ResetStats()
	p.Read(a)
	p.Read(b)
	if got := p.PageAccesses(); got != 0 {
		t.Fatalf("ceiling capacity lost a page: PA=%d", got)
	}
	// Zero and negative still disable.
	for _, n := range []int{0, -100} {
		p.SetCacheBytes(n)
		p.ResetStats()
		p.Read(a)
		p.Read(a)
		if got := p.PageAccesses(); got != 2 {
			t.Fatalf("SetCacheBytes(%d) should disable the cache: PA=%d", n, got)
		}
	}
}
