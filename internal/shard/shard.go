// Package shard implements the scatter-gather sharded index: a dataset is
// partitioned across N sub-indexes and every query fans out to all shards
// concurrently, with the per-shard answers merged into one exact result.
//
// The paper's §6.2 observes that pivot-based structures parallelize
// naturally because objects are independent of each other; the batch
// engine (internal/exec) exploits that across queries, and sharding
// exploits it across the dataset: MRQ(q, r) over a partition of O is the
// union of MRQ(q, r) over the parts, and MkNNQ(q, k) is the k best of the
// per-part k-candidate sets, so a partitioned search loses no exactness.
// That opens the scenario the ROADMAP names — a dataset larger than one
// table or tree serving a single query from all cores — and, because
// Sharded is itself a core.Index, it composes with the batch engine for
// free (batch-over-shards).
//
// Each shard holds a sparse mirror of the parent dataset: a core.Dataset
// sharing the parent's Space (so compdists accounting stays global) in
// which only the shard's objects are live, at their parent identifiers.
// Sub-indexes therefore answer directly in parent ids — no id translation
// on the gather path — and kNN tie-breaking by id inside a shard agrees
// exactly with the unsharded index, which makes shard-vs-unsharded answers
// identical, not merely equivalent.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/exec"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
)

// Builder constructs the sub-index for one shard. The shard dataset shares
// the parent's Space and identifiers; any index constructor in the library
// can serve (select pivots on the shard dataset, then build over it).
type Builder func(sub *core.Dataset) (core.Index, error)

// Options configures a Sharded index.
type Options struct {
	// Shards is the number of partitions; <= 0 uses GOMAXPROCS. The count
	// is capped at the number of live objects so no shard starts empty.
	Shards int
	// Workers bounds the goroutines used per query (shard probes) and
	// during construction (parallel shard builds); <= 0 uses GOMAXPROCS.
	Workers int
	// Partitioner routes objects to shards; nil uses RoundRobin.
	Partitioner Partitioner
}

// Sharded partitions a dataset across sub-indexes and scatter-gathers
// every query over them. It implements core.Index: queries return exactly
// the answer of the same index built unsharded, updates route through the
// partitioner, and the cost counters sum across shards. Like every other
// raw index, concurrent queries are safe but must not interleave with
// Insert/Delete; wrap the Sharded in an epoch.Live for a mixed
// read/write workload (the epoch guard covers the routing table and
// every shard in one write section).
type Sharded struct {
	ds      *core.Dataset   // parent dataset
	subs    []core.Index    // per-shard sub-indexes
	subDS   []*core.Dataset // per-shard sparse mirrors of ds
	loc     map[int]int     // parent id -> shard
	part    Partitioner
	seq     int // objects routed so far (round-robin state)
	workers int

	// probeNames[i] is the trace span name of shard i. probeObs[i] is its
	// fanout-latency histogram, set by RegisterObs before the index
	// starts serving; nil when uninstrumented.
	probeNames []string
	probeObs   []*obs.Histogram
}

// RegisterObs instruments the scatter path: every shard probe observes
// mx_shard_probe_seconds{shard="i"}. Call before the index serves queries
// (registration allocates; the probes themselves do not). Registration
// is idempotent across swaps — a rebuilt Sharded re-registering the
// same shard labels receives the same histogram handles.
func (s *Sharded) RegisterObs(reg *obs.Registry) {
	s.probeObs = make([]*obs.Histogram, len(s.subs))
	for i := range s.subs {
		s.probeObs[i] = reg.Histogram("mx_shard_probe_seconds",
			"Per-shard fanout latency of scatter-gather probes.",
			obs.DefLatencyBuckets, obs.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
}

// New partitions ds across opts.Shards shards, building the sub-indexes in
// parallel with the given builder.
func New(ds *core.Dataset, builder Builder, opts Options) (*Sharded, error) {
	if builder == nil {
		return nil, fmt.Errorf("shard: nil builder")
	}
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	live := ds.LiveIDs()
	if len(live) == 0 {
		return nil, fmt.Errorf("shard: empty dataset")
	}
	if n > len(live) {
		n = len(live)
	}
	part := opts.Partitioner
	if part == nil {
		part = RoundRobin{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Sharded{
		ds:      ds,
		loc:     make(map[int]int, len(live)),
		part:    part,
		workers: workers,
	}

	// Partition into sparse mirrors: mirrors[sh][id] is non-nil iff object
	// id belongs to shard sh.
	mirrors := make([][]core.Object, n)
	for sh := range mirrors {
		mirrors[sh] = make([]core.Object, ds.Len())
	}
	for seq, id := range live {
		o := ds.Object(id)
		sh := part.Place(seq, id, o, n)
		if sh < 0 || sh >= n {
			return nil, fmt.Errorf("shard: partitioner %s placed object %d in shard %d of %d", part.Name(), id, sh, n)
		}
		mirrors[sh][id] = o
		s.loc[id] = sh
	}
	s.seq = len(live)

	s.subDS = make([]*core.Dataset, n)
	s.probeNames = make([]string, n)
	for sh := range mirrors {
		s.subDS[sh] = core.NewDataset(ds.Space(), mirrors[sh])
		s.probeNames[sh] = "probe_shard" + strconv.Itoa(sh)
	}

	// Build the sub-indexes in parallel: shards partition the objects, so
	// the builds touch disjoint state (§6.2's object-independence again).
	s.subs = make([]core.Index, n)
	errs := make([]error, n)
	core.ParallelFor(n, workers, func(start, end int) {
		for sh := start; sh < end; sh++ {
			s.subs[sh], errs[sh] = builder(s.subDS[sh])
		}
	})
	for sh, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return s, nil
}

// Name identifies the sharded index by its shard count and member type.
func (s *Sharded) Name() string {
	return fmt.Sprintf("Sharded[%d×%s]", len(s.subs), s.subs[0].Name())
}

// NumShards returns the number of partitions.
func (s *Sharded) NumShards() int { return len(s.subs) }

// Shard exposes one sub-index (for stats and tests).
func (s *Sharded) Shard(i int) core.Index { return s.subs[i] }

// ShardSizes returns the number of live objects per shard.
func (s *Sharded) ShardSizes() []int {
	sizes := make([]int, len(s.subDS))
	for i, sub := range s.subDS {
		sizes[i] = sub.Count()
	}
	return sizes
}

// scatter fans one probe out across the shards on the worker pool. When
// instrumented (RegisterObs) every probe observes its shard histogram;
// when tr is non-nil every probe also records a probe_shard<N> span
// with the shard's page-access delta. (Compdists go through the Space
// the shards share, so they cannot be attributed per shard; the
// wrapping read_section span carries the query total.)
func (s *Sharded) scatter(tr *obs.Trace, job func(sh int) error) error {
	if s.probeObs == nil && tr == nil {
		return exec.Scatter(context.Background(), s.workers, len(s.subs), job)
	}
	wrapped := func(sh int) error {
		var paBase int64
		if tr != nil {
			paBase = s.subs[sh].PageAccesses()
		}
		start := time.Now()
		err := job(sh)
		dur := time.Since(start)
		if s.probeObs != nil {
			s.probeObs[sh].Observe(dur.Seconds())
		}
		if tr != nil {
			pa := s.subs[sh].PageAccesses() - paBase
			if pa < 0 {
				pa = 0
			}
			tr.Add(s.probeNames[sh], start, dur, 0, pa)
		}
		return err
	}
	return exec.Scatter(context.Background(), s.workers, len(s.subs), wrapped)
}

// RangeSearchTraced is the one MRQ scatter: the union of the shard
// answers. Shards partition the live objects, so concatenating the
// (disjoint) per-shard id lists and sorting yields exactly the
// unsharded answer. Both options travel with the scatter: a non-nil
// accept restricts the answer to accepted ids, each shard rejecting
// non-matching candidates before their distance — concurrently, on the
// same worker pool — and a non-nil tr records a span per shard probe
// plus a merge span (plan.TracedSearcher). A shard whose sub-index
// cannot push the predicate down filters its own answer instead, which
// keeps the merged answer exact whatever mix of capabilities the
// shards have.
func (s *Sharded) RangeSearchTraced(q core.Object, r float64, accept core.Filter, tr *obs.Trace) ([]int, error) {
	if core.NoFilter(accept) {
		accept = nil
	}
	parts := make([][]int, len(s.subs))
	err := s.scatter(tr, func(sh int) error {
		var ids []int
		var err error
		as, pushdown := s.subs[sh].(core.AcceptSearcher)
		if accept != nil && pushdown {
			ids, err = as.RangeSearchAccept(q, r, accept)
		} else {
			ids, err = s.subs[sh].RangeSearch(q, r)
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
		if accept != nil && !pushdown {
			kept := ids[:0]
			for _, id := range ids {
				if accept.Match(id) {
					kept = append(kept, id)
				}
			}
			ids = kept
		}
		parts[sh] = ids
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeStart := time.Now()
	var res []int
	for _, p := range parts {
		res = append(res, p...)
	}
	sort.Ints(res)
	tr.Add("merge", mergeStart, time.Since(mergeStart), 0, 0)
	return res, nil
}

// KNNSearchTraced is the one MkNNQ scatter (options as in
// RangeSearchTraced): every shard reports its own k nearest accepted
// objects — any member of the global top-k is in its shard's top-k —
// and the candidates merge through a KNNHeap whose distance-then-id
// ordering matches the per-index contract exactly. A shard without
// pushdown re-probes with an inflated k (core.PostFilterKNN).
func (s *Sharded) KNNSearchTraced(q core.Object, k int, accept core.Filter, tr *obs.Trace) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	if core.NoFilter(accept) {
		accept = nil
	}
	parts := make([][]core.Neighbor, len(s.subs))
	err := s.scatter(tr, func(sh int) error {
		var err error
		as, pushdown := s.subs[sh].(core.AcceptSearcher)
		switch {
		case accept == nil:
			parts[sh], err = s.subs[sh].KNNSearch(q, k)
		case pushdown:
			parts[sh], err = as.KNNSearchAccept(q, k, accept)
		default:
			probe := func(kk int) ([]core.Neighbor, error) { return s.subs[sh].KNNSearch(q, kk) }
			parts[sh], err = core.PostFilterKNN(probe, s.subDS[sh].Count(), k, 2*k, accept.Match)
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeStart := time.Now()
	h := core.NewKNNHeap(k)
	for _, p := range parts {
		for _, nb := range p {
			h.Push(nb.ID, nb.Dist)
		}
	}
	res := h.Result()
	tr.Add("merge", mergeStart, time.Since(mergeStart), 0, 0)
	return res, nil
}

// Pushdown reports the least pushdown of the shards (plan.PushdownOf).
// Sharded takes an accept test whatever its shards are, but a shard
// without pushdown answers it by post-filtering — for a kNN, by
// re-probing with a doubled k — so the planner must price the front as
// its weakest shard.
func (s *Sharded) Pushdown() plan.Pushdown {
	pd := plan.PushdownPruned
	for _, sub := range s.subs {
		pd = min(pd, plan.PushdownOf(sub))
	}
	return pd
}

// RangeSearch, KNNSearch (core.Index) and RangeSearchAccept,
// KNNSearchAccept (core.AcceptSearcher) are adapters over the two
// scatters.

func (s *Sharded) RangeSearch(q core.Object, r float64) ([]int, error) {
	return s.RangeSearchTraced(q, r, nil, nil)
}

func (s *Sharded) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return s.KNNSearchTraced(q, k, nil, nil)
}

func (s *Sharded) RangeSearchAccept(q core.Object, r float64, accept core.Filter) ([]int, error) {
	return s.RangeSearchTraced(q, r, accept, nil)
}

func (s *Sharded) KNNSearchAccept(q core.Object, k int, accept core.Filter) ([]core.Neighbor, error) {
	return s.KNNSearchTraced(q, k, accept, nil)
}

// Insert routes the object (already stored in the parent dataset under id)
// to a shard chosen by the partitioner, mirrors it there, and indexes it.
func (s *Sharded) Insert(id int) error {
	o := s.ds.Object(id)
	if o == nil {
		return fmt.Errorf("shard: insert of deleted or unknown object %d", id)
	}
	if _, dup := s.loc[id]; dup {
		return fmt.Errorf("shard: duplicate insert of %d", id)
	}
	sh := s.part.Place(s.seq, id, o, len(s.subs))
	if sh < 0 || sh >= len(s.subs) {
		return fmt.Errorf("shard: partitioner %s placed object %d in shard %d of %d", s.part.Name(), id, sh, len(s.subs))
	}
	if err := s.subDS[sh].InsertAt(id, o); err != nil {
		return err
	}
	if err := s.subs[sh].Insert(id); err != nil {
		_ = s.subDS[sh].Delete(id) // roll the mirror back
		return err
	}
	s.loc[id] = sh
	s.seq++
	return nil
}

// Delete removes the object from the shard holding it. Per the Index
// contract the object is still present in the parent dataset here, and the
// mirror keeps it live until the sub-index has dropped it.
func (s *Sharded) Delete(id int) error {
	sh, ok := s.loc[id]
	if !ok {
		return fmt.Errorf("shard: delete of unindexed object %d", id)
	}
	if err := s.subs[sh].Delete(id); err != nil {
		return err
	}
	if err := s.subDS[sh].Delete(id); err != nil {
		return err
	}
	delete(s.loc, id)
	return nil
}

// PageAccesses sums the shard counters.
func (s *Sharded) PageAccesses() int64 {
	var sum int64
	for _, sub := range s.subs {
		sum += sub.PageAccesses()
	}
	return sum
}

// ResetStats zeroes every shard's counters.
func (s *Sharded) ResetStats() {
	for _, sub := range s.subs {
		sub.ResetStats()
	}
}

// MemBytes sums the shard sizes plus the sharding overhead (the sparse
// mirror slices and the id routing table).
func (s *Sharded) MemBytes() int64 {
	var sum int64
	for _, sub := range s.subs {
		sum += sub.MemBytes()
	}
	for _, sub := range s.subDS {
		sum += int64(sub.Len()) * 8 // mirror slice slot
	}
	return sum + int64(len(s.loc))*16
}

// DiskBytes sums the shard disk footprints.
func (s *Sharded) DiskBytes() int64 {
	var sum int64
	for _, sub := range s.subs {
		sum += sub.DiskBytes()
	}
	return sum
}
