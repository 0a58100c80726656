// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6) at configurable scale: the
// construction-cost table (Table 4), the update-cost table (Table 6), the
// EPT/EPT* and M-index/M-index* comparisons (Figs 14-15), the MRQ radius
// sweep (Fig 16), the MkNNQ k sweep (Fig 17), the pivot-count sweep
// (Fig 18), and the library's ablation studies.
//
// Methodology mirrors §6.1: one HFI pivot set per (dataset, |P|) shared
// by every index (except EPT/EPT* and BKT, which choose their own pivots
// by design); 4 KB pages, except 40 KB for CPT and the PM-tree on
// high-dimensional data; a 128 KB LRU cache enabled for MkNNQ on the
// disk-based indexes; costs averaged over random query objects.
package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/exec"
	"metricindex/internal/fqt"
	"metricindex/internal/mtree"
	"metricindex/internal/omni"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/shard"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// Config scales the experiments.
type Config struct {
	// N is the dataset cardinality (the paper uses ~1M; the default
	// 20,000 keeps a full run laptop-sized with identical trends).
	N int
	// Queries is the number of random query objects averaged per
	// measurement (paper: 100).
	Queries int
	// Pivots is the default |P| (paper default: 5).
	Pivots int
	// Seed drives all generation and sampling.
	Seed int64
	// Datasets restricts the run (nil = all four).
	Datasets []dataset.Kind
	// Workers routes query workloads through the concurrent batch engine
	// and fans out every index construction (table precomputes, BKT/FQT/
	// MVPT node-level builds, CPT/PM-tree partitioned bulk loads): 0
	// keeps the sequential per-query loop and builds (the paper's
	// single-threaded methodology), negative uses GOMAXPROCS, otherwise
	// that many worker goroutines. LAESA is the exception at 0: its
	// distance precompute always fans out, over GOMAXPROCS, and builds
	// the same table. Answers are identical either way, and for every
	// structure except the two bulk-loaded ones so are per-query
	// compdists and PA (only CPU moves). The exceptions are the PM-tree
	// and CPT: Workers != 0 selects the partitioned M-tree *bulk load*,
	// which clusters objects onto different pages than one-by-one
	// insertion, so their per-query and update costs shift slightly.
	Workers int
	// Shards partitions the dataset across that many sub-indexes behind a
	// scatter-gather front (internal/shard): every build wraps the chosen
	// index and every query fans out over the shards concurrently. 0 or 1
	// keeps the single unsharded structure. Answers are identical either
	// way; each shard selects its own HFI pivot set.
	Shards int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.Queries <= 0 {
		c.Queries = 20
	}
	if c.Pivots <= 0 {
		c.Pivots = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.AllKinds
	}
	return c
}

// Env is one prepared dataset: generated objects, query workload, shared
// pivots, and calibrated radii.
type Env struct {
	Cfg    Config
	Gen    *dataset.Generated
	Pivots []int // HFI pivots, |P| = Cfg.Pivots
}

// NewEnv generates a dataset and selects its shared pivot set.
func NewEnv(kind dataset.Kind, cfg Config) (*Env, error) {
	cfg = cfg.WithDefaults()
	gen, err := dataset.Generate(kind, dataset.Config{N: cfg.N, Queries: cfg.Queries, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return EnvFor(gen, cfg)
}

// EnvFor prepares the environment over an already generated (or loaded)
// dataset: the shared HFI pivot set, selected with seed Seed+1.
func EnvFor(gen *dataset.Generated, cfg Config) (*Env, error) {
	cfg = cfg.WithDefaults()
	pv, err := pivot.HFI(gen.Dataset, cfg.Pivots, pivot.Options{Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, Gen: gen, Pivots: pv}, nil
}

// Radius returns the query radius whose selectivity matches the given
// fraction (the paper's r axis is expressed as a result-set percentage).
func (e *Env) Radius(selectivity float64) float64 {
	return dataset.CalibrateRadius(e.Gen, selectivity)
}

// Built is an index plus the pagers it lives on (none for in-memory
// indexes, one per shard for a sharded disk index).
type Built struct {
	Name   string
	Index  core.Index
	Pagers []*store.Pager
}

// SetCacheBytes adjusts the buffer cache of every pager the index lives
// on; no-op for in-memory structures.
func (b *Built) SetCacheBytes(n int) {
	for _, p := range b.Pagers {
		p.SetCacheBytes(n)
	}
}

// PageRule is where a family keeps its data (§6.1).
type PageRule uint8

const (
	InMemory   PageRule = iota // no pager
	SmallPages                 // 4 KB pages
	LargePages                 // 40 KB pages on Color and Synthetic, 4 KB elsewhere
)

// Builder is one index family of the registry.
type Builder struct {
	Name  string
	Pages PageRule
	// Paper marks the twelve kinds of Tables 4 and 6.
	Paper bool
	// New builds the index over e, on p (nil for InMemory).
	New func(e *Env, p *store.Pager) (core.Index, error)
}

// Builders is the family registry: every index kind, each once, the
// paper's lineup in the order of Tables 4 and 6. Snapshot loaders stay
// registered by each engine package's init (persist.Register), since
// persist cannot import the engines.
func Builders() []Builder {
	return []Builder{
		{Name: "AESA", New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return table.NewAESA(e.Gen.Dataset)
		}},
		{Name: "LAESA", Paper: true, New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return table.NewLAESAParallel(e.Gen.Dataset, e.Pivots, e.Cfg.Workers)
		}},
		{Name: "EPT", Paper: true, New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return table.NewEPT(e.Gen.Dataset, table.EPTOptions{
				L: e.Cfg.Pivots, Radius: e.Radius(0.16),
				Sel: pivot.Options{Seed: e.Cfg.Seed + 2}, Workers: e.Cfg.Workers,
			})
		}},
		{Name: "EPT*", Paper: true, New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return table.NewEPTStar(e.Gen.Dataset, table.EPTOptions{
				L: e.Cfg.Pivots, Sel: pivot.Options{Seed: e.Cfg.Seed + 2}, Workers: e.Cfg.Workers,
			})
		}},
		{Name: "DiskEPT*", Pages: SmallPages, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return table.NewDiskEPTStar(e.Gen.Dataset, p, table.EPTOptions{
				L: e.Cfg.Pivots, Sel: pivot.Options{Seed: e.Cfg.Seed + 2}, Workers: e.Cfg.Workers,
			})
		}},
		{Name: "CPT", Pages: LargePages, Paper: true, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return table.NewCPT(e.Gen.Dataset, p, e.Pivots, e.Cfg.Seed, e.Cfg.Workers)
		}},
		{Name: "BKT", Paper: true, New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return ptree.NewBKT(e.Gen.Dataset, ptree.Options{
				Seed: e.Cfg.Seed, MaxDistance: e.Gen.MaxDistance, Workers: e.Cfg.Workers,
			})
		}},
		{Name: "FQT", Paper: true, New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return ptree.NewFQT(e.Gen.Dataset, e.Pivots, ptree.Options{
				MaxDistance: e.Gen.MaxDistance, Workers: e.Cfg.Workers,
			})
		}},
		{Name: "FQA", New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return fqt.NewFQA(e.Gen.Dataset, e.Pivots)
		}},
		{Name: "MVPT", Paper: true, New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return ptree.NewMVPT(e.Gen.Dataset, e.Pivots, ptree.Options{Workers: e.Cfg.Workers})
		}},
		{Name: "VPT", New: func(e *Env, _ *store.Pager) (core.Index, error) {
			return ptree.NewMVPT(e.Gen.Dataset, e.Pivots, ptree.Options{Arity: 2, Workers: e.Cfg.Workers})
		}},
		{Name: "PM-tree", Pages: LargePages, Paper: true, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return mtree.NewPMTree(e.Gen.Dataset, p, e.Pivots, e.Cfg.Seed, e.Cfg.Workers)
		}},
		{Name: "Omni-seq", Pages: SmallPages, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return table.NewOmniSeq(e.Gen.Dataset, p, e.Pivots, e.Cfg.Workers)
		}},
		{Name: "OmniB+-tree", Pages: SmallPages, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return omni.NewBPlus(e.Gen.Dataset, p, e.Pivots, e.Cfg.Workers)
		}},
		{Name: "OmniR-tree", Pages: SmallPages, Paper: true, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return mtree.NewOmniRTree(e.Gen.Dataset, p, e.Pivots, e.Gen.MaxDistance, e.Cfg.Workers)
		}},
		{Name: "M-index", Pages: SmallPages, Paper: true, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return spb.NewMIndex(e.Gen.Dataset, p, e.Pivots, spb.MIndexOptions{MaxDistance: e.Gen.MaxDistance})
		}},
		{Name: "M-index*", Pages: SmallPages, Paper: true, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return spb.NewMIndex(e.Gen.Dataset, p, e.Pivots, spb.MIndexOptions{Star: true, MaxDistance: e.Gen.MaxDistance})
		}},
		{Name: "SPB-tree", Pages: SmallPages, Paper: true, New: func(e *Env, p *store.Pager) (core.Index, error) {
			return spb.New(e.Gen.Dataset, p, e.Pivots, spb.Options{MaxDistance: e.Gen.MaxDistance})
		}},
	}
}

// QueryLineup is the nine-index lineup of Figs 16-18.
var QueryLineup = []string{
	"EPT*", "CPT", "BKT", "FQT", "MVPT", "SPB-tree", "M-index*", "PM-tree", "OmniR-tree",
}

// Names lists the registry's kinds, comma-separated: the commands' -index
// help text and the unknown-name error.
func Names() string {
	var names []string
	for _, b := range Builders() {
		names = append(names, b.Name)
	}
	return strings.Join(names, ", ")
}

// BuilderByName finds a builder.
func BuilderByName(name string) (Builder, error) {
	for _, b := range Builders() {
		if b.Name == name {
			return b, nil
		}
	}
	return Builder{}, fmt.Errorf("bench: unknown index %q (one of %s)", name, Names())
}

// Build constructs b's index over e on a fresh pager of b's page rule.
// Config.Shards > 1 builds one per shard instead, each over its own
// environment, behind a scatter-gather front.
func Build(e *Env, b Builder) (*Built, error) {
	var mu sync.Mutex
	var pagers []*store.Pager
	build := func(e *Env) (core.Index, error) {
		var p *store.Pager
		if b.Pages != InMemory {
			size := store.DefaultPageSize
			if b.Pages == LargePages && (e.Gen.Kind == dataset.Color || e.Gen.Kind == dataset.Synthetic) {
				size = store.LargePageSize
			}
			p = store.NewPager(size)
			mu.Lock()
			pagers = append(pagers, p)
			mu.Unlock()
		}
		return b.New(e, p)
	}
	var idx core.Index
	var err error
	if e.Cfg.Shards > 1 {
		idx, err = shard.New(e.Gen.Dataset, func(sub *core.Dataset) (core.Index, error) {
			se, err := e.shardEnv(sub)
			if err != nil {
				return nil, err
			}
			return build(se)
		}, shard.Options{Shards: e.Cfg.Shards, Workers: e.Cfg.Workers})
	} else {
		idx, err = build(e)
	}
	if err != nil {
		return nil, err
	}
	return &Built{Name: idx.Name(), Index: idx, Pagers: pagers}, nil
}

// WithDataset derives the environment for a build over a replacement
// dataset: the same config, queries and d+, with a fresh HFI pivot set
// selected on the dataset. The serving layer's graceful swap rebuilds
// through this (the live dataset has drifted from the one the process
// loaded), and the shard sub-builds specialize it below.
func (e *Env) WithDataset(sub *core.Dataset) (*Env, error) {
	cfg := e.Cfg
	cfg.N = sub.Count()
	return EnvFor(&dataset.Generated{
		Kind:        e.Gen.Kind,
		Dataset:     sub,
		Queries:     e.Gen.Queries,
		MaxDistance: e.Gen.MaxDistance,
	}, cfg)
}

// shardEnv derives the environment one shard builds in. Shards and
// Workers are cleared — the shards themselves are the parallelism, and a
// sub-build must not re-shard.
func (e *Env) shardEnv(sub *core.Dataset) (*Env, error) {
	se, err := e.WithDataset(sub)
	if err != nil {
		return nil, err
	}
	se.Cfg.Shards = 0
	se.Cfg.Workers = 0
	return se, nil
}

// QueryCost aggregates per-query averages, plus the latency percentiles
// a serving layer's SLOs are written against (nearest-rank, identical
// definition in the sequential loop, the batch engine, and the server).
type QueryCost struct {
	CompDists     float64
	PA            float64
	CPU           time.Duration
	P50, P95, P99 time.Duration
}

// engine returns the batch engine configured by Config.Workers, or nil
// when the sequential loop is requested.
func (e *Env) engine() *exec.Engine {
	if e.Cfg.Workers == 0 {
		return nil
	}
	return exec.New(e.Gen.Dataset.Space(), exec.Options{Workers: e.Cfg.Workers})
}

// MeasureRange averages MRQ(q, r) costs over the environment's queries,
// either sequentially or through the batch engine (Config.Workers).
func MeasureRange(e *Env, b *Built, r float64) (QueryCost, error) {
	sp := e.Gen.Dataset.Space()
	sp.ResetCompDists()
	b.Index.ResetStats()
	n := float64(len(e.Gen.Queries))
	if eng := e.engine(); eng != nil {
		res, err := eng.BatchRangeSearch(context.Background(), b.Index, e.Gen.Queries, r)
		if err != nil {
			return QueryCost{}, err
		}
		cost := QueryCost{
			CompDists: res.Stats.PerQueryCompDists(),
			PA:        res.Stats.PerQueryPageAccesses(),
			CPU:       time.Duration(float64(res.Stats.Wall) / n),
			P50:       res.Stats.P50, P95: res.Stats.P95, P99: res.Stats.P99,
		}
		return cost, nil
	}
	durs := make([]time.Duration, 0, len(e.Gen.Queries))
	start := time.Now()
	for _, q := range e.Gen.Queries {
		qStart := time.Now()
		if _, err := b.Index.RangeSearch(q, r); err != nil {
			return QueryCost{}, err
		}
		durs = append(durs, time.Since(qStart))
	}
	elapsed := time.Since(start)
	cost := QueryCost{
		CompDists: float64(sp.CompDists()) / n,
		PA:        float64(b.Index.PageAccesses()) / n,
		CPU:       time.Duration(float64(elapsed) / n),
	}
	cost.P50, cost.P95, cost.P99 = exec.LatencyPercentiles(durs)
	return cost, nil
}

// MeasureKNN averages MkNNQ(q, k) costs over the environment's queries,
// with the paper's 128 KB cache enabled on disk indexes, either
// sequentially or through the batch engine (Config.Workers).
func MeasureKNN(e *Env, b *Built, k int) (QueryCost, error) {
	b.SetCacheBytes(store.DefaultCacheBytes)
	defer b.SetCacheBytes(0)
	sp := e.Gen.Dataset.Space()
	sp.ResetCompDists()
	b.Index.ResetStats()
	n := float64(len(e.Gen.Queries))
	if eng := e.engine(); eng != nil {
		res, err := eng.BatchKNNSearch(context.Background(), b.Index, e.Gen.Queries, k)
		if err != nil {
			return QueryCost{}, err
		}
		cost := QueryCost{
			CompDists: res.Stats.PerQueryCompDists(),
			PA:        res.Stats.PerQueryPageAccesses(),
			CPU:       time.Duration(float64(res.Stats.Wall) / n),
			P50:       res.Stats.P50, P95: res.Stats.P95, P99: res.Stats.P99,
		}
		return cost, nil
	}
	durs := make([]time.Duration, 0, len(e.Gen.Queries))
	start := time.Now()
	for _, q := range e.Gen.Queries {
		qStart := time.Now()
		if _, err := b.Index.KNNSearch(q, k); err != nil {
			return QueryCost{}, err
		}
		durs = append(durs, time.Since(qStart))
	}
	elapsed := time.Since(start)
	cost := QueryCost{
		CompDists: float64(sp.CompDists()) / n,
		PA:        float64(b.Index.PageAccesses()) / n,
		CPU:       time.Duration(float64(elapsed) / n),
	}
	cost.P50, cost.P95, cost.P99 = exec.LatencyPercentiles(durs)
	return cost, nil
}

// BuildCost captures Table 4's columns.
type BuildCost struct {
	PA        int64
	CompDists int64
	Time      time.Duration
	MemBytes  int64
	DiskBytes int64
}

// MeasureBuild constructs an index through Build and records its cost.
func MeasureBuild(e *Env, builder Builder) (*Built, BuildCost, error) {
	sp := e.Gen.Dataset.Space()
	sp.ResetCompDists()
	start := time.Now()
	b, err := Build(e, builder)
	if err != nil {
		return nil, BuildCost{}, err
	}
	cost := BuildCost{
		CompDists: sp.CompDists(),
		Time:      time.Since(start),
		MemBytes:  b.Index.MemBytes(),
		DiskBytes: b.Index.DiskBytes(),
	}
	cost.PA = b.Index.PageAccesses()
	b.Index.ResetStats()
	return b, cost, nil
}

// UpdateCost captures Table 6's columns (delete + reinsert, averaged).
type UpdateCost struct {
	PA        float64
	CompDists float64
	Time      time.Duration
}

// MeasureUpdate deletes and reinserts `rounds` random objects (§6.3).
func MeasureUpdate(e *Env, b *Built, rounds int) (UpdateCost, error) {
	ds := e.Gen.Dataset
	sp := ds.Space()
	ids := ds.LiveIDs()
	step := len(ids)/rounds + 1
	sp.ResetCompDists()
	b.Index.ResetStats()
	start := time.Now()
	count := 0
	for i := 0; i < len(ids) && count < rounds; i += step {
		id := ids[i]
		if err := b.Index.Delete(id); err != nil {
			return UpdateCost{}, fmt.Errorf("update delete %d: %w", id, err)
		}
		o := ds.Object(id)
		if err := ds.Delete(id); err != nil {
			return UpdateCost{}, err
		}
		newID := ds.Insert(o)
		if err := b.Index.Insert(newID); err != nil {
			return UpdateCost{}, fmt.Errorf("update insert %d: %w", newID, err)
		}
		count++
	}
	elapsed := time.Since(start)
	n := float64(count)
	return UpdateCost{
		PA:        float64(b.Index.PageAccesses()) / n,
		CompDists: float64(sp.CompDists()) / n,
		Time:      time.Duration(float64(elapsed) / n),
	}, nil
}

// Rounding units for report output.
const (
	usec = time.Microsecond
	msec = time.Millisecond
)
