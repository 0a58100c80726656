package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/persist"
	"metricindex/internal/plan"
)

// answer is what a linear scan returns for one pool query.
type answer struct {
	nns []core.Neighbor
	ids []int
}

// prepared is everything a run derives from its seed before the program
// under test is set up: the dataset, the query pool with its brute-force
// answers, the objects writes insert, and — for the restart workload —
// the snapshot and write-ahead log the set-up restores from.
type prepared struct {
	sp   *spec
	seed int64
	gen  *dataset.Generated
	dim  int
	flat []float64 // row-major copy of the dataset rows, for the kernel rung

	pool     []core.Object
	poolJSON []json.RawMessage
	inserts  []core.Object
	insJSON  []json.RawMessage
	radius   float64
	oracle   []answer
	preds    []*plan.Predicate

	dir       string // temporary snapshot/WAL directory, removed by cleanup
	userBytes int64
	seedIDs   []int // ids the journaled writes added and left live
	snapSaveS float64
	prepS     float64
}

func (p *prepared) snapPath() string { return filepath.Join(p.dir, "snapshot.mxs") }

func prepare(sp *spec, seed int64, outDir string) (*prepared, error) {
	start := time.Now()
	p := &prepared{sp: sp, seed: seed}
	// The dataset is part of the workload's definition, like n: its rows,
	// attribute bags, query pool and insert objects come from a fixed
	// generator seed, so two runs differ in which pool queries they ask,
	// in what order and with what writes between them — not in the
	// cluster geometry or in how hard the pool happens to be.
	extra := 0
	if sp.writes() {
		extra = insertPool
	}
	gen, err := dataset.Generate(sp.kind, dataset.Config{N: sp.n, Queries: sp.pool + extra, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	p.gen = gen
	p.pool, p.inserts = gen.Queries[:sp.pool], gen.Queries[sp.pool:]
	if sp.writes() {
		if err := dataset.AttachAttrs(gen, datasetSeed+1); err != nil {
			return nil, err
		}
		for _, f := range filterBattery {
			pred, err := plan.Parse(f)
			if err != nil {
				return nil, err
			}
			p.preds = append(p.preds, pred)
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if p.dir, err = os.MkdirTemp(outDir, "run-"); err != nil {
			return nil, err
		}
	}
	if sp.top() == rungLoopback {
		if p.poolJSON, err = encodeObjects(p.pool); err != nil {
			return nil, err
		}
		if p.insJSON, err = encodeObjects(p.inserts); err != nil {
			return nil, err
		}
	}
	if sp.restore {
		if err := p.journalWrites(); err != nil {
			return nil, err
		}
	}
	p.userBytes = userBytes(gen.Dataset)
	var ok bool
	if p.flat, p.dim, ok = gen.Dataset.FlatVectors(); !ok {
		return nil, fmt.Errorf("%s: dataset is not uniform vectors", sp.name)
	}
	p.radius = calibrateRadius(gen.Dataset, p.flat, p.dim, p.pool, sp.sel)
	p.oracle = bruteForce(gen.Dataset, p.flat, p.dim, p.pool, p.radius)
	p.prepS = time.Since(start).Seconds()
	return p, nil
}

func (p *prepared) cleanup() {
	if p.dir != "" {
		_ = os.RemoveAll(p.dir) // best effort: the directory only holds this run's scratch files
	}
}

func encodeObjects(objs []core.Object) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(objs))
	for i, o := range objs {
		enc, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		out[i] = enc
	}
	return out, nil
}

// journalWrites produces the files the restart set-up boots from: a
// snapshot of the freshly built index, and a WAL holding walPreload
// writes committed after it. The dataset is left in the post-replay
// state, so the oracle computed over it is the one a restored server
// must agree with.
func (p *prepared) journalWrites() error {
	ds := p.gen.Dataset
	idx, _, err := p.build(ds, &setupParts{})
	if err != nil {
		return err
	}
	live := epoch.NewLive(ds, idx)
	t0 := time.Now()
	if err := persist.SaveLive(p.snapPath(), live); err != nil {
		return err
	}
	p.snapSaveS = time.Since(t0).Seconds()
	wal, _, _, err := persist.OpenWAL(filepath.Join(p.dir, "preload.wal"), persist.SyncOff)
	if err != nil {
		return err
	}
	live.SetJournal(wal)
	sp := *p.sp
	sp.mix = [numOpKinds]float64{opInsert: 0.6, opDelete: 0.2, opSetAttrs: 0.2}
	gen := newOpGen(&sp, subSeed(p.seed, "preload", 0), 0, 1, 0)
	st := &stack{ds: ds, idx: idx, live: live}
	c := &client{added: &idQueue{}}
	for i := 0; i < walPreload; i++ {
		if _, err := p.execLive(st, c, gen.next()); err != nil {
			return fmt.Errorf("journaled write %d: %w", i, err)
		}
	}
	p.seedIDs = c.added.ids
	return wal.Close()
}

// userBytes is the payload a caller handed over: 8 bytes per coordinate
// plus the attribute values, without any container overhead.
func userBytes(ds *core.Dataset) int64 {
	var n int64
	for id, o := range ds.Objects() {
		if v, ok := o.(core.Vector); ok {
			n += int64(8 * len(v))
		}
		for k, a := range ds.Attrs(id) {
			n += int64(len(k)) + 8 + int64(len(a.Str()))
			for _, t := range a.Tags() {
				n += int64(len(t))
			}
		}
	}
	return n
}

// scanRows streams d(q, row) over every live row of the dataset through
// the flat kernel, a cache-sized block at a time, and calls visit for the
// rows within *within — which visit may tighten as it goes, so the common
// row costs one comparison.
func scanRows(ds *core.Dataset, flat []float64, dim int, q core.Vector, within *float64, visit func(id int, d float64)) {
	bm := ds.Space().Metric().(core.BatchMetric)
	const block = 4096
	var out [block]float64
	holes := ds.Count() != ds.Len()
	for lo := 0; lo < ds.Len(); lo += block {
		hi := min(lo+block, ds.Len())
		bm.DistanceFlat(q, flat[lo*dim:hi*dim], dim, out[:hi-lo])
		for i, d := range out[:hi-lo] {
			if d <= *within && (!holes || ds.Live(lo+i)) {
				visit(lo+i, d)
			}
		}
	}
}

// calibrateRadius returns the radius at which a range query selects the
// given share of the dataset, as the median over the first pool queries
// of the distance to their (sel·n)-th neighbour.
func calibrateRadius(ds *core.Dataset, flat []float64, dim int, pool []core.Object, sel float64) float64 {
	m := max(1, int(sel*float64(ds.Count())))
	var radii []float64
	for _, q := range pool[:min(len(pool), 32)] {
		h := core.NewKNNHeap(m)
		within := h.Radius()
		scanRows(ds, flat, dim, q.(core.Vector), &within, func(id int, d float64) {
			h.Push(id, d)
			within = h.Radius()
		})
		radii = append(radii, h.Radius())
	}
	sort.Float64s(radii)
	return radii[len(radii)/2]
}

// bruteForce answers the kNN and the range query of every pool entry by
// a linear scan: one pass over the rows yields both. flat is the
// dataset's current FlatVectors.
func bruteForce(ds *core.Dataset, flat []float64, dim int, pool []core.Object, radius float64) []answer {
	out := make([]answer, len(pool))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += workers {
				h := core.NewKNNHeap(knnK)
				var ids []int
				within := h.Radius()
				scanRows(ds, flat, dim, pool[i].(core.Vector), &within, func(id int, d float64) {
					h.Push(id, d)
					if d <= radius {
						ids = append(ids, id)
					}
					within = max(radius, h.Radius())
				})
				out[i] = answer{nns: h.Result(), ids: ids}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// bruteForceFiltered is the filtered kNN oracle: scan, keep the rows
// whose bag satisfies the predicate, rank by distance.
func bruteForceFiltered(ds *core.Dataset, q core.Object, pred *plan.Predicate) []core.Neighbor {
	m := ds.Space().Metric()
	h := core.NewKNNHeap(knnK)
	for id, o := range ds.Objects() {
		if o != nil && pred.Eval(ds.Attrs(id)) {
			h.Push(id, m.Distance(q, o))
		}
	}
	return h.Result()
}

// newCache builds the answer cache the serving workloads attach.
func newCache() *cache.Cache { return cache.New(cache.Options{MaxBytes: cacheBytes}) }
