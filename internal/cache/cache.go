// Package cache is the epoch-keyed answer cache: a byte-budgeted,
// sharded LRU that memoizes whole query answers (MRQ id lists, MkNNQ
// neighbor lists) keyed by the query object, the query kind and
// parameter, the filter predicate, and the index epoch the answer was
// observed at. Its whole query surface is Get, Do and Put over one
// plan.Query → plan.Answer pair.
//
// The paper's only cache is the 128 KB page cache that reduces PA for
// the disk-based indexes; nothing there memoizes answers, so a hot
// query re-pays its full distance computations on every arrival. This
// cache elides that recomputable per-query work entirely: a hit costs a
// hash lookup and zero compdists, zero page accesses.
//
// Correctness comes from epoch keying. epoch.Live returns, from inside
// every search's read section, the monotone epoch of the dataset
// version the answer observed; the cache stores the answer under that
// epoch and serves it only to lookups at the same epoch. Any committed
// insert, delete or swap bumps the epoch, so every cached answer
// self-invalidates — there is no explicit invalidation path to get
// wrong. One entry exists per (query, kind, parameter, filter); a fill
// at a newer epoch replaces the stale entry in place.
//
// Concurrent identical misses collapse through a per-shard singleflight:
// the first caller computes, the rest wait and share the answer (counted
// in Stats.Collapsed). Flights are keyed by epoch too, so a fill for an
// old dataset version is never handed to a caller at a newer one.
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// errFillPanicked is what singleflight waiters receive when the
// leader's fetch panicked: the flight is released (nothing is cached)
// and the panic propagates in the leader's goroutine.
var errFillPanicked = errors.New("cache: fill panicked")

// DefaultMaxBytes is the answer-byte budget used when Options.MaxBytes
// is unset: 32 MB, enough for hundreds of thousands of typical answers.
const DefaultMaxBytes = 32 << 20

// DefaultShards is the lock-striping factor used when Options.Shards is
// unset.
const DefaultShards = 16

// Options configures a Cache. The zero value gets DefaultMaxBytes and
// DefaultShards.
type Options struct {
	// MaxBytes bounds the estimated bytes of cached answers across all
	// shards; the least recently used entries are evicted beyond it.
	// <= 0 uses DefaultMaxBytes.
	MaxBytes int64
	// Shards is the lock-striping factor; <= 0 uses DefaultShards.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	return o
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits is the number of lookups served from a stored entry.
	Hits int64
	// Misses is the number of fills actually computed.
	Misses int64
	// Collapsed is the number of callers served by waiting on another
	// caller's in-flight fill (singleflight) instead of computing.
	Collapsed int64
	// Evictions counts entries dropped to stay inside the byte budget.
	Evictions int64
	// Entries and Bytes describe the currently resident answers.
	Entries int64
	Bytes   int64
	// MaxBytes echoes the configured budget.
	MaxBytes int64
}

// HitRate is the fraction of lookups that avoided computing: hits plus
// collapsed waiters over all lookups. Zero before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Collapsed
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Collapsed) / float64(total)
}

// key identifies one cached query: the query kind, the parameter
// (radius bits or k), the canonical filter predicate ("" when
// unfiltered) and a digest of all three plus the query object. Entries
// are indexed by the digest and guarded by equality of the whole key
// (and of the query object), so a filtered answer can never be served
// to an unfiltered lookup or to a different predicate, and a digest
// collision can only cost a miss, never a wrong answer. The epoch is
// deliberately NOT part of the key — one entry lives per query, stamped
// with the epoch it was observed at, so a fill at a newer epoch
// replaces the stale answer instead of accumulating dead versions.
type key struct {
	digest uint64
	kind   plan.Kind
	param  uint64
	filter string
}

func keyOf(q plan.Query) key {
	k := key{kind: q.Kind, param: uint64(q.K)}
	if q.Kind == plan.KindRange {
		k.param = math.Float64bits(q.Radius)
	}
	if q.Filter != nil {
		k.filter = q.Filter.String()
	}
	k.digest = digest(q.Object, k.kind, k.param, k.filter)
	return k
}

// flightKey identifies one in-flight fill. Unlike entries, flights carry
// the epoch: a caller at a newer epoch must not wait on (and be handed)
// a fill for an older dataset version.
type flightKey struct {
	digest uint64
	epoch  uint64
}

// flight is one in-flight fill other callers can wait on.
type flight struct {
	key   key         // collision guards, same as entry.key
	query core.Object // and entry.query
	done  chan struct{}
	ans   plan.Answer
	err   error
}

// entry is one resident answer, stamped (ans.Epoch) with the dataset
// version it was observed at.
type entry struct {
	key   key
	query core.Object
	ans   plan.Answer
	bytes int64
	elem  *list.Element
}

// shard is one lock stripe: an LRU over its share of the byte budget
// plus the singleflight table for fills that hash here.
type shard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[uint64]*entry // by key.digest
	lru      *list.List        // front = most recently used
	flights  map[flightKey]*flight
}

// Cache is the epoch-keyed answer cache. Safe for concurrent use.
type Cache struct {
	shards    []*shard
	maxBytes  int64
	hits      atomic.Int64
	misses    atomic.Int64
	collapsed atomic.Int64
	evictions atomic.Int64
}

// New builds a cache. The zero Options is valid (32 MB, 16 shards).
func New(opts Options) *Cache {
	opts = opts.withDefaults()
	c := &Cache{shards: make([]*shard, opts.Shards), maxBytes: opts.MaxBytes}
	per := opts.MaxBytes / int64(opts.Shards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			maxBytes: per,
			entries:  make(map[uint64]*entry),
			lru:      list.New(),
			flights:  make(map[flightKey]*flight),
		}
	}
	return c
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		MaxBytes:  c.maxBytes,
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += int64(len(sh.entries))
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

//metriclint:noalloc
func (c *Cache) shardFor(k key) *shard {
	return c.shards[k.digest%uint64(len(c.shards))]
}

// memo copies an answer into its memoized form: private slices, marked
// Cached, and no Strategy (no plan runs for whoever is served it). It
// is applied on the way in (the stored answer never aliases the
// filler's slices) and on the way out (callers may keep and mutate
// what they get).
func memo(a plan.Answer) plan.Answer {
	return plan.Answer{
		IDs:       append([]int(nil), a.IDs...),
		Neighbors: append([]core.Neighbor(nil), a.Neighbors...),
		Epoch:     a.Epoch,
		Cached:    true,
	}
}

// Get returns the cached answer to q observed at exactly the given
// epoch, or ok=false, computing nothing either way — the traced search
// path and the batch engine's pre-dispatch peek. Lookups that miss are
// not counted: the fill that follows (Do or Put) counts exactly one
// miss, so a peek-then-fill sequence is not double-counted.
func (c *Cache) Get(q plan.Query, epoch uint64) (plan.Answer, bool) {
	k := keyOf(q)
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := c.lookup(sh, k, q.Object, epoch)
	if e == nil {
		return plan.Answer{}, false
	}
	return memo(e.ans), true
}

// lookup finds the resident entry matching (k, q, epoch), touching its
// LRU position and counting the hit. Called with sh.mu held.
//
//metriclint:noalloc
func (c *Cache) lookup(sh *shard, k key, q core.Object, epoch uint64) *entry {
	e := sh.entries[k.digest]
	if e == nil || e.key != k || e.ans.Epoch != epoch || !objectEqual(e.query, q) {
		return nil
	}
	sh.lru.MoveToFront(e.elem)
	c.hits.Add(1)
	return e
}

// Do answers q through the cache: a resident entry at the lookup epoch
// is returned immediately (Cached set); otherwise concurrent identical
// misses collapse onto one fill whose answer is stored under the epoch
// it observed (fill reports it in Answer.Epoch — epoch.Live's read
// section has exactly this shape) and shared with every waiter. The
// returned epoch is the dataset version the answer is exact for (>= the
// lookup epoch when a write committed between the caller reading its
// epoch and the fill running). Only the caller whose fill ran gets the
// fill's own Answer back, Strategy included.
func (c *Cache) Do(q plan.Query, epoch uint64, fill func() (plan.Answer, error)) (plan.Answer, error) {
	k := keyOf(q)
	e, f, leader := c.acquire(k, q.Object, epoch)
	switch {
	case e != nil:
		return memo(e.ans), nil
	case f != nil && !leader:
		<-f.done
		if f.err != nil {
			return plan.Answer{}, f.err
		}
		c.collapsed.Add(1)
		return memo(f.ans), nil
	}
	// The release is deferred so a panicking fill still wakes every
	// waiter (with errFillPanicked, nothing cached) instead of leaving
	// them blocked on a dead flight; the panic itself propagates.
	var ans plan.Answer
	err := errFillPanicked
	defer func() { c.release(k, epoch, f, q.Object, ans, err) }()
	ans, err = fill()
	c.misses.Add(1)
	if err != nil {
		return plan.Answer{}, err
	}
	return ans, nil
}

// Put stores an answer computed outside Do (the traced search path
// bypasses the singleflight but still wants its answer resident) under
// the epoch in ans.Epoch. The fill is counted as one miss, mirroring
// what Do would have recorded. The answer's slices are copied.
func (c *Cache) Put(q plan.Query, ans plan.Answer) {
	c.misses.Add(1)
	c.release(keyOf(q), 0, nil, q.Object, ans, nil)
}

// acquire resolves one cache attempt under the shard lock: a resident
// hit (e != nil), an existing flight to wait on (f != nil, leader
// false), or leadership of a new flight (f != nil, leader true). All
// nil means compute without singleflight — a digest collision is
// already in flight for a different query, too rare to serialize on.
func (c *Cache) acquire(k key, q core.Object, epoch uint64) (e *entry, f *flight, leader bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = c.lookup(sh, k, q, epoch); e != nil {
		return e, nil, false
	}
	fk := flightKey{digest: k.digest, epoch: epoch}
	if f = sh.flights[fk]; f != nil {
		if f.key == k && objectEqual(f.query, q) {
			return nil, f, false
		}
		return nil, nil, false // digest collision with the in-flight query
	}
	f = &flight{key: k, query: q, done: make(chan struct{})}
	sh.flights[fk] = f
	return nil, f, true
}

// release publishes a finished fill: a successful answer is memoized
// under the epoch it observed, evicting LRU entries beyond the shard
// budget, and the flight (if any, registered at lookupEpoch) is closed
// so waiters wake to the same memoized copy.
func (c *Cache) release(k key, lookupEpoch uint64, f *flight, q core.Object, ans plan.Answer, err error) {
	if err == nil {
		ans = memo(ans)
	}
	sh := c.shardFor(k)
	sh.mu.Lock()
	if f != nil {
		f.ans, f.err = ans, err
		delete(sh.flights, flightKey{digest: k.digest, epoch: lookupEpoch})
	}
	if err == nil {
		c.store(sh, &entry{key: k, query: q, ans: ans})
	}
	sh.mu.Unlock()
	if f != nil {
		close(f.done)
	}
}

// store inserts e, replacing the entry under the same digest. Called
// with sh.mu held.
func (c *Cache) store(sh *shard, e *entry) {
	e.bytes = entrySize(e.query, e.ans) + int64(len(e.key.filter))
	if e.bytes > sh.maxBytes {
		return // larger than a whole stripe's budget: not cacheable
	}
	if old := sh.entries[e.key.digest]; old != nil {
		if old.ans.Epoch > e.ans.Epoch {
			return // a fill for a newer dataset version already landed
		}
		sh.bytes -= old.bytes
		sh.lru.Remove(old.elem)
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[e.key.digest] = e
	sh.bytes += e.bytes
	for sh.bytes > sh.maxBytes {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, victim.key.digest)
		sh.bytes -= victim.bytes
		c.evictions.Add(1)
	}
}

// entrySize estimates the resident bytes of one answer: a fixed
// per-entry overhead (map bucket, list element, headers) plus the query
// and answer payloads.
func entrySize(q core.Object, ans plan.Answer) int64 {
	const overhead = 128
	return overhead + objectBytes(q) + int64(len(ans.IDs))*8 + int64(len(ans.Neighbors))*16
}

func objectBytes(q core.Object) int64 {
	switch v := q.(type) {
	case core.Vector:
		return int64(len(v)) * 8
	case core.IntVector:
		return int64(len(v)) * 4
	case core.Word:
		return int64(len(v))
	default:
		return 64
	}
}

// FNV-1a parameters for the key digest.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//metriclint:noalloc
func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

//metriclint:noalloc
func fnvWord(h uint64, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(w>>(8*i)))
	}
	return h
}

// digest hashes the query object together with the kind and parameter
// into the 64-bit FNV-1a key digest. Collisions are guarded by the full
// objectEqual comparison on every hit, so a collision can only cost a
// miss, never a wrong answer.
//
// The hashing runs as plain helper functions, not closures over the
// running hash: this is the cache hit path, and a capturing closure is
// one heap allocation per probe. (The default arm formats unknown object
// types through fmt and is the one allocating escape hatch; the three
// library object kinds stay on the annotated path.)
//
//metriclint:noalloc
func digest(q core.Object, kd plan.Kind, param uint64, filter string) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, byte(kd))
	h = fnvWord(h, param)
	// The predicate joins the key through its canonical string: an
	// unfiltered query ("") and any filtered variant of the same (q,
	// param) hash — and compare — apart.
	h = fnvWord(h, uint64(len(filter)))
	for i := 0; i < len(filter); i++ {
		h = fnvByte(h, filter[i])
	}
	switch v := q.(type) {
	case core.Vector:
		for _, x := range v {
			h = fnvWord(h, math.Float64bits(x))
		}
	case core.IntVector:
		for _, x := range v {
			h = fnvWord(h, uint64(uint32(x)))
		}
	case core.Word:
		for i := 0; i < len(v); i++ {
			h = fnvByte(h, v[i])
		}
	default:
		s := fmt.Sprintf("%#v", q)
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
	}
	return h
}

// objectEqual compares two query objects for exact equality — the
// collision guard behind every digest match. The library's three object
// types compare structurally; unknown types fall back to
// reflect.DeepEqual. The three structural arms are allocation-free —
// this comparison runs on every cache hit.
//
//metriclint:noalloc
func objectEqual(a, b core.Object) bool {
	switch x := a.(type) {
	case core.Vector:
		y, ok := b.(core.Vector)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			// Compare by bit pattern, matching the digest: NaN payloads
			// hash apart, so they must compare apart too.
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case core.IntVector:
		y, ok := b.(core.IntVector)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case core.Word:
		y, ok := b.(core.Word)
		return ok && x == y
	default:
		return reflect.DeepEqual(a, b)
	}
}
