package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Process-wide page-traffic counters, summed across every Pager ever
// created. Unlike the per-instance counters these are never reset —
// swaps and experiment resets call ResetStats on their own volume, but
// a Prometheus counter must stay monotone — so the /metrics counter
// families read these while /v1/stats keeps its per-instance,
// resettable view.
var (
	globalPageReads  atomic.Int64
	globalPageWrites atomic.Int64
	globalCacheHits  atomic.Int64
)

// GlobalPageStats returns the process-wide monotone page-traffic
// counters: physical page reads, page writes, and pager-cache hits
// (reads satisfied without a page access).
func GlobalPageStats() (reads, writes, cacheHits int64) {
	return globalPageReads.Load(), globalPageWrites.Load(), globalCacheHits.Load()
}

// DefaultPageSize is the 4 KB page used by all indexes by default (§6.1).
const DefaultPageSize = 4096

// LargePageSize is the 40 KB page the paper gives CPT and the PM-tree on
// high-dimensional datasets so the trees keep a sane height (§6.1).
const LargePageSize = 40960

// DefaultCacheBytes is the 128 KB LRU cache enabled for MkNNQ processing
// on the disk-based indexes (§6.1).
const DefaultCacheBytes = 128 * 1024

// PageID identifies a page within a Pager. Zero is a valid page.
type PageID uint32

// InvalidPage is a sentinel for "no page".
const InvalidPage = PageID(0xFFFFFFFF)

// Pager is a simulated disk volume: a growable array of fixed-size pages
// with read/write accounting and an optional LRU cache. A cache hit costs
// no page access; a miss or a write costs one. Pager is safe for
// concurrent use by multiple goroutines.
type Pager struct {
	mu        sync.Mutex
	pageSize  int
	pages     [][]byte
	freeList  []PageID
	reads     int64
	writes    int64
	cacheHits int64

	// The LRU cache is an intrusive list over arrays: slot 0 is the
	// sentinel of a circular doubly linked list (next[0] is the most
	// recently used slot, prev[0] the eviction victim), slots 1..cacheCap
	// hold cached pages, and slotOf maps a page to its slot (0 = not
	// cached), one entry per allocated page.
	cacheCap   int // capacity in pages; 0 disables the cache
	cacheLen   int
	slotOf     []int32
	prev, next []int32
	slotPage   []PageID
}

// NewPager creates a volume with the given page size (DefaultPageSize when
// zero or negative). The cache starts disabled.
func NewPager(pageSize int) *Pager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Pager{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// SetCacheBytes resizes the LRU buffer cache. Zero or negative disables
// caching (every read becomes a page access); any positive size rounds up
// to at least one page, so asking for a cache smaller than the page size
// does not silently disable it. Resizing clears the cache.
func (p *Pager) SetCacheBytes(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cacheClear()
	if n <= 0 {
		p.cacheCap = 0
	} else {
		p.cacheCap = (n + p.pageSize - 1) / p.pageSize
	}
	p.prev = make([]int32, p.cacheCap+1)
	p.next = make([]int32, p.cacheCap+1)
	p.slotPage = make([]PageID, p.cacheCap+1)
}

// DropCache empties the buffer cache without changing its capacity, so a
// fresh experiment starts cold.
func (p *Pager) DropCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cacheClear()
}

// cacheClear forgets every cached page. Caller holds the lock.
func (p *Pager) cacheClear() {
	if p.cacheLen == 0 {
		return
	}
	for s := p.next[0]; s != 0; s = p.next[s] {
		p.slotOf[p.slotPage[s]] = 0
	}
	p.prev[0], p.next[0] = 0, 0
	p.cacheLen = 0
}

// Alloc returns a zeroed page, reusing freed pages first.
func (p *Pager) Alloc() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.freeList); n > 0 {
		id := p.freeList[n-1]
		p.freeList = p.freeList[:n-1]
		clear(p.pages[id])
		return id
	}
	p.pages = append(p.pages, make([]byte, p.pageSize))
	p.slotOf = append(p.slotOf, 0)
	return PageID(len(p.pages) - 1)
}

// Free releases a page for reuse.
func (p *Pager) Free(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.slotOf[id]; s != 0 {
		p.slotOf[id] = 0
		p.unlink(s)
		// Keep slots 1..cacheLen occupied: the last slot fills the hole.
		if last := int32(p.cacheLen); s != last {
			p.slotPage[s], p.prev[s], p.next[s] = p.slotPage[last], p.prev[last], p.next[last]
			p.next[p.prev[s]], p.prev[p.next[s]] = s, s
			p.slotOf[p.slotPage[s]] = s
		}
		p.cacheLen--
	}
	p.freeList = append(p.freeList, id)
}

// Read fetches a page. The returned slice aliases the stored page and must
// be treated as read-only; use Write to modify a page. A cache hit does
// not count as a page access.
//
//metriclint:noalloc
func (p *Pager) Read(id PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) {
		return nil, p.errUnallocated("read", id)
	}
	if p.cacheCap > 0 {
		if s := p.slotOf[id]; s != 0 {
			p.cacheTouch(s)
			p.cacheHits++
			globalCacheHits.Add(1)
			return p.pages[id], nil
		}
		p.cacheInsert(id)
	}
	p.reads++
	globalPageReads.Add(1)
	return p.pages[id], nil
}

// Peek is Read of an allocated page without the page access or the
// cache: for checking a restored volume, never for a query.
func (p *Pager) Peek(id PageID) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages[id]
}

func (p *Pager) errUnallocated(op string, id PageID) error {
	return fmt.Errorf("store: %s of unallocated page %d (of %d)", op, id, len(p.pages))
}

// Write stores a full page image. Short data is zero-padded; oversized
// data is an error. Writing always counts as a page access (write-through).
func (p *Pager) Write(id PageID, data []byte) error {
	return p.writeAt(id, nil, 0, data, true)
}

// WriteAt overwrites len(data) bytes of a page starting at byte off and
// leaves the rest of the page as it is. It is charged exactly like Write:
// one page access, and the page becomes the most recently used.
func (p *Pager) WriteAt(id PageID, off int, data []byte) error {
	return p.writeAt(id, nil, off, data, false)
}

// WriteHeadAt is WriteAt that also overwrites the page's first len(head)
// bytes, which must end at or before off: a record and the page header
// counting it, charged as the one write they are.
func (p *Pager) WriteHeadAt(id PageID, head []byte, off int, data []byte) error {
	return p.writeAt(id, head, off, data, false)
}

func (p *Pager) writeAt(id PageID, head []byte, off int, data []byte, zeroTail bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= len(p.pages) {
		return p.errUnallocated("write", id)
	}
	if off < len(head) || len(data) > p.pageSize-off {
		return fmt.Errorf("store: write of %d bytes at offset %d exceeds page size %d", len(data), off, p.pageSize)
	}
	pg := p.pages[id]
	copy(pg, head)
	copy(pg[off:], data)
	if zeroTail {
		clear(pg[off+len(data):])
	}
	p.writes++
	globalPageWrites.Add(1)
	if p.cacheCap > 0 {
		if s := p.slotOf[id]; s != 0 {
			p.cacheTouch(s)
		} else {
			p.cacheInsert(id)
		}
	}
	return nil
}

// cacheInsert makes id the most recently used page, taking over the slot
// of the least recently used one when the cache is full. Caller holds
// the lock.
//
//metriclint:noalloc
func (p *Pager) cacheInsert(id PageID) {
	var s int32
	if p.cacheLen == p.cacheCap {
		s = p.prev[0]
		p.slotOf[p.slotPage[s]] = 0
		p.unlink(s)
	} else {
		p.cacheLen++
		s = int32(p.cacheLen)
	}
	p.slotPage[s] = id
	p.slotOf[id] = s
	p.pushFront(s)
}

// cacheTouch makes the page in slot s the most recently used.
//
//metriclint:noalloc
func (p *Pager) cacheTouch(s int32) {
	if p.next[0] != s {
		p.unlink(s)
		p.pushFront(s)
	}
}

//metriclint:noalloc
func (p *Pager) unlink(s int32) {
	p.next[p.prev[s]] = p.next[s]
	p.prev[p.next[s]] = p.prev[s]
}

//metriclint:noalloc
func (p *Pager) pushFront(s int32) {
	head := p.next[0]
	p.prev[s], p.next[s] = 0, head
	p.prev[head], p.next[0] = s, s
}

// PageAccesses returns reads+writes since the last ResetStats.
func (p *Pager) PageAccesses() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads + p.writes
}

// Reads returns the read count since the last ResetStats.
func (p *Pager) Reads() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads
}

// Writes returns the write count since the last ResetStats.
func (p *Pager) Writes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes
}

// CacheHits returns the buffer-cache hit count since the last
// ResetStats: reads answered without costing a page access.
func (p *Pager) CacheHits() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cacheHits
}

// ResetStats zeroes the per-instance access counters. The process-wide
// counters behind GlobalPageStats are unaffected.
func (p *Pager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reads, p.writes, p.cacheHits = 0, 0, 0
}

// Pages returns the number of allocated pages (including freed ones still
// owned by the volume).
func (p *Pager) Pages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pages)
}

// DiskBytes returns the simulated on-disk footprint in bytes: live pages
// times the page size.
func (p *Pager) DiskBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.pages)-len(p.freeList)) * int64(p.pageSize)
}
