package store

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"metricindex/internal/testutil"
)

// lruModel is the reference the array LRU is checked against: the
// container/list + map cache the pager used to have, with the same
// rules — a read or write of a cached page moves it to the front, any
// other inserts it at the front and evicts from the back.
type lruModel struct {
	capacity    int
	ll          *list.List
	at          map[PageID]*list.Element
	reads, hits int64
}

func (m *lruModel) clear() { m.ll, m.at = list.New(), map[PageID]*list.Element{} }

func (m *lruModel) touch(id PageID) (hit bool) {
	if m.capacity == 0 {
		return false
	}
	if el, ok := m.at[id]; ok {
		m.ll.MoveToFront(el)
		return true
	}
	m.at[id] = m.ll.PushFront(id)
	for m.ll.Len() > m.capacity {
		back := m.ll.Back()
		m.ll.Remove(back)
		delete(m.at, back.Value.(PageID))
	}
	return false
}

func (m *lruModel) read(id PageID) {
	if m.touch(id) {
		m.hits++
	} else {
		m.reads++
	}
}

func (m *lruModel) free(id PageID) {
	if el, ok := m.at[id]; ok {
		m.ll.Remove(el)
		delete(m.at, id)
	}
}

func (m *lruModel) order() []PageID {
	var ids []PageID
	for el := m.ll.Front(); el != nil; el = el.Next() {
		ids = append(ids, el.Value.(PageID))
	}
	return ids
}

// cacheOrder lists the cached pages from most to least recently used.
func (p *Pager) cacheOrder() []PageID {
	var ids []PageID
	if p.cacheLen > 0 {
		for s := p.next[0]; s != 0; s = p.next[s] {
			ids = append(ids, p.slotPage[s])
		}
	}
	return ids
}

// TestPagerLRUMatchesModel drives random Read / Write / WriteAt / Free /
// Alloc / SetCacheBytes / DropCache sequences through the pager and the
// reference model and requires, after every operation, the same read and
// hit counts and the same recency order — hence the same eviction
// victims.
func TestPagerLRUMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPager(64)
		m := &lruModel{}
		m.clear()
		var live []PageID
		for i := 0; i < 12; i++ {
			live = append(live, p.Alloc())
		}
		for step := 0; step < 4000; step++ {
			pick := func() PageID { return live[rng.Intn(len(live))] }
			switch op := rng.Intn(100); {
			case op < 55:
				id := pick()
				if _, err := p.Read(id); err != nil {
					t.Fatal(err)
				}
				m.read(id)
			case op < 70:
				id := pick()
				if err := p.Write(id, []byte{byte(step)}); err != nil {
					t.Fatal(err)
				}
				m.touch(id)
			case op < 85:
				id := pick()
				if err := p.WriteAt(id, rng.Intn(60), []byte{1, 2, 3}); err != nil {
					t.Fatal(err)
				}
				m.touch(id)
			case op < 90:
				if len(live) > 4 {
					i := rng.Intn(len(live))
					p.Free(live[i])
					m.free(live[i])
					live = slices.Delete(live, i, i+1)
				}
			case op < 96:
				live = append(live, p.Alloc())
			case op < 98:
				pages := rng.Intn(10) // 0 disables the cache
				p.SetCacheBytes(pages * 64)
				m.capacity = pages
				m.clear()
			default:
				p.DropCache()
				m.clear()
			}
			if p.Reads() != m.reads || p.CacheHits() != m.hits {
				t.Fatalf("seed %d step %d: reads %d hits %d, model %d / %d", seed, step, p.Reads(), p.CacheHits(), m.reads, m.hits)
			}
			if got, want := p.cacheOrder(), m.order(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: recency order %v, model %v", seed, step, got, want)
			}
		}
	}
}

// TestPagerWriteAt: WriteAt overwrites its range only, is charged like
// Write, and rejects a range that leaves the page.
func TestPagerWriteAt(t *testing.T) {
	p := NewPager(32)
	a := p.Alloc()
	if err := p.Write(a, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteAt(a, 4, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	buf, _ := p.Read(a)
	if string(buf[:10]) != "0123xy6789" {
		t.Fatalf("page holds %q", buf[:10])
	}
	if p.Writes() != 2 {
		t.Fatalf("Writes=%d, want 2", p.Writes())
	}
	for _, c := range []struct{ off, n int }{{-1, 1}, {31, 2}, {33, 0}, {0, 33}} {
		if err := p.WriteAt(a, c.off, make([]byte, c.n)); err == nil {
			t.Errorf("WriteAt(off=%d, %d bytes) on a 32-byte page succeeded", c.off, c.n)
		}
	}
	if err := p.WriteAt(PageID(9), 0, nil); err == nil {
		t.Error("WriteAt of an unallocated page succeeded")
	}
	if err := p.WriteAt(a, 32, nil); err != nil {
		t.Errorf("empty write at the page end: %v", err)
	}
}

// TestStoreReadPathAllocs is the runtime witness of the noalloc
// annotations on the read path every disk index shares: a page read
// allocates nothing whether it hits or misses the cache, and a RAF read
// into a buffer that has grown to the record size allocates nothing.
func TestStoreReadPathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	p := NewPager(128)
	r := NewRAF(p)
	for id := 0; id < 64; id++ {
		if _, err := r.Append(id, make([]byte, 40+id)); err != nil { // most records span two pages
			t.Fatal(err)
		}
	}
	p.SetCacheBytes(4 * 128)
	next := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		next++
		for _, id := range []PageID{PageID(next % p.Pages()), 0, 0} { // a miss or a hit, then hits
			if _, err := p.Read(id); err != nil {
				panic(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("Pager.Read allocated %.1f times per run; want 0", allocs)
	}
	if p.CacheHits() == 0 || p.Reads() == 0 {
		t.Fatalf("witness saw %d hits and %d misses; it must see both", p.CacheHits(), p.Reads())
	}
	buf := make([]byte, 0, 128)
	if allocs := testing.AllocsPerRun(1000, func() {
		next++
		var err error
		if buf, err = r.ReadInto(next%64, buf); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Fatalf("RAF.ReadInto allocated %.1f times per read; want 0", allocs)
	}
}
