package metricindex

import (
	"metricindex/internal/fqt"
	"metricindex/internal/mtree"
	"metricindex/internal/omni"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// DiskOptions configures the simulated disk behind a disk-based index.
type DiskOptions struct {
	// PageSize in bytes; 4096 when zero (the paper's default). The paper
	// uses 40960 for CPT and the PM-tree on high-dimensional data (§6.1).
	PageSize int
	// CacheBytes sizes the LRU buffer cache; 0 disables it. The paper
	// enables a 128 KB cache for MkNNQ processing.
	CacheBytes int
}

// DefaultCacheBytes is the paper's 128 KB MkNNQ cache size.
const DefaultCacheBytes = store.DefaultCacheBytes

// LargePageSize is the 40 KB page the paper uses for CPT and the PM-tree
// on high-dimensional datasets.
const LargePageSize = store.LargePageSize

// onDisk builds an index on a fresh pager configured by o and binds the
// two.
func (o DiskOptions) onDisk(build func(p *store.Pager) (Index, error)) (*DiskIndex, error) {
	p := store.NewPager(o.PageSize)
	if o.CacheBytes > 0 {
		p.SetCacheBytes(o.CacheBytes)
	}
	idx, err := build(p)
	if err != nil {
		return nil, err
	}
	return &DiskIndex{Index: idx, pager: p}, nil
}

// DiskIndex is an Index bound to its simulated disk, exposing cache
// control (the paper toggles the 128 KB cache between experiments).
type DiskIndex struct {
	Index
	pager *store.Pager
}

// SetCacheBytes resizes the index's LRU buffer cache (0 disables it).
func (d *DiskIndex) SetCacheBytes(n int) { d.pager.SetCacheBytes(n) }

// DropCache empties the cache so a measurement starts cold.
func (d *DiskIndex) DropCache() { d.pager.DropCache() }

// Unwrap exposes the wrapped index, letting Save serialize the
// underlying structure (persist.Unwrapper).
func (d *DiskIndex) Unwrap() Index { return d.Index }

// NewAESA builds the O(n²) AESA table (§3.1) — exact but only viable for
// small datasets.
func NewAESA(ds *Dataset) (Index, error) { return table.NewAESA(ds) }

// NewLAESA builds the LAESA pivot table (§3.1) over the given pivots.
func NewLAESA(ds *Dataset, pivots []int) (Index, error) {
	return table.NewLAESA(ds, pivots)
}

// NewLAESAParallel builds the same LAESA table with the per-object
// distance precompute fanned out across workers goroutines (<= 0 uses
// GOMAXPROCS). The result is identical to NewLAESA; only wall-clock
// construction time changes.
func NewLAESAParallel(ds *Dataset, pivots []int, workers int) (Index, error) {
	return table.NewLAESAParallel(ds, pivots, workers)
}

// EPTOptions configures the extreme pivot tables.
type EPTOptions struct {
	// L is the number of pivots per object.
	L int
	// M is the EPT group size (0 = estimate from Equation (1)).
	M int
	// Radius is a typical query radius used by the group-size estimate.
	Radius float64
	// Seed drives sampling.
	Seed int64
	// Workers parallelizes the per-object pivot assignment during
	// construction: 0 or 1 builds sequentially, negative uses GOMAXPROCS,
	// otherwise that many goroutines. The built table is identical either
	// way.
	Workers int
}

// NewEPT builds the original Extreme Pivot Table [24] (§3.2).
func NewEPT(ds *Dataset, opts EPTOptions) (Index, error) {
	return table.NewEPT(ds, table.EPTOptions{
		L: opts.L, M: opts.M, Radius: opts.Radius,
		Sel: pivot.Options{Seed: opts.Seed}, Workers: opts.Workers,
	})
}

// NewEPTStar builds EPT* — EPT with the paper's PSA pivot selection
// (Algorithm 1), trading construction cost for query compdists (§3.2).
func NewEPTStar(ds *Dataset, opts EPTOptions) (Index, error) {
	return table.NewEPTStar(ds, table.EPTOptions{
		L: opts.L, Sel: pivot.Options{Seed: opts.Seed}, Workers: opts.Workers,
	})
}

// NewDiskEPTStar builds the disk-based EPT* — the extension the paper's
// conclusion (§7) names as a promising direction: EPT*'s per-object PSA
// pivots with the table on sequential disk pages and objects in a RAF,
// removing the in-memory table's dataset-size limit.
func NewDiskEPTStar(ds *Dataset, opts EPTOptions, disk DiskOptions) (*DiskIndex, error) {
	return disk.onDisk(func(p *store.Pager) (Index, error) {
		return table.NewDiskEPTStar(ds, p, table.EPTOptions{
			L: opts.L, Sel: pivot.Options{Seed: opts.Seed}, Workers: opts.Workers,
		})
	})
}

// NewCPT builds the Clustered Pivot Table (§3.3): in-memory distance
// table plus a disk M-tree clustering the objects, both built
// sequentially (the paper's methodology).
func NewCPT(ds *Dataset, pivots []int, opts DiskOptions) (*DiskIndex, error) {
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return table.NewCPT(ds, p, pivots, 1, 0)
	})
}

// NewCPTParallel builds the same CPT with the distance-table precompute
// fanned out across workers goroutines (<= 0 uses GOMAXPROCS) and the
// M-tree constructed by the partitioned bulk load instead of one-by-one
// insertion. Query answers are identical to NewCPT's; only the object
// clustering on disk (and the build time) differs.
func NewCPTParallel(ds *Dataset, pivots []int, opts DiskOptions, workers int) (*DiskIndex, error) {
	if workers <= 0 {
		workers = -1 // table.NewCPT: negative means GOMAXPROCS
	}
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return table.NewCPT(ds, p, pivots, 1, workers)
	})
}

// TreeOptions configures the in-memory pivot trees — BKT, FQT and
// MVPT/VPT are one tree (internal/ptree), and each family reads the
// fields it needs: LeafCapacity (16 when zero), MaxChildren (BKT/FQT
// fanout, 64 when zero), MaxDistance (the distance-domain bound d+ that
// sizes BKT/FQT buckets), Arity (the MVPT fanout m, 5 when zero per
// §4.3), Seed (BKT's pivot choice) and Workers (node-level parallel
// construction bounded by a shared token pool: 0 or 1 builds
// sequentially, negative uses GOMAXPROCS; the tree is identical either
// way).
type TreeOptions = ptree.Options

// NewBKT builds the Burkhard-Keller tree (§4.1); the metric must be
// discrete.
func NewBKT(ds *Dataset, opts TreeOptions) (Index, error) {
	return ptree.NewBKT(ds, opts)
}

// NewFQT builds the Fixed Queries Tree (§4.2); the metric must be
// discrete.
func NewFQT(ds *Dataset, pivots []int, opts TreeOptions) (Index, error) {
	return ptree.NewFQT(ds, pivots, opts)
}

// NewFQA builds the Fixed Queries Array [11], the compact form of FQT.
func NewFQA(ds *Dataset, pivots []int) (Index, error) {
	return fqt.NewFQA(ds, pivots)
}

// NewMVPT builds the multi-vantage-point tree (§4.3) with the configured
// arity (5 by default; 2 yields the classic VPT).
func NewMVPT(ds *Dataset, pivots []int, opts TreeOptions) (Index, error) {
	return ptree.NewMVPT(ds, pivots, opts)
}

// NewPMTree builds the PM-tree (§5.1): an M-tree with per-entry pivot
// rings, loaded by one-by-one insertion (the paper's methodology).
// Objects live inside the tree pages, so high-dimensional data needs
// LargePageSize.
func NewPMTree(ds *Dataset, pivots []int, opts DiskOptions) (*DiskIndex, error) {
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return mtree.NewPMTree(ds, p, pivots, 1, 0)
	})
}

// NewPMTreeParallel builds the same PM-tree with the partitioned bulk
// load: objects are partitioned around deterministic samples, partition
// subtrees build in parallel workers (<= 0 uses GOMAXPROCS), and a
// sequential merge writes the pages, so the resulting volume is
// byte-identical for every worker count. Answers match NewPMTree's;
// only page clustering and build time differ.
func NewPMTreeParallel(ds *Dataset, pivots []int, opts DiskOptions, workers int) (*DiskIndex, error) {
	if workers <= 0 {
		workers = -1 // mtree.NewPMTree: negative means GOMAXPROCS
	}
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return mtree.NewPMTree(ds, p, pivots, 1, workers)
	})
}

// OmniOptions configures the Omni-family.
type OmniOptions struct {
	DiskOptions
	// MaxDistance is d+, used to quantize the R-tree bulk-load ordering.
	MaxDistance float64
	// Workers parallelizes the pivot-table precompute during
	// construction: 0 or 1 builds sequentially, negative uses GOMAXPROCS,
	// otherwise that many goroutines. The built index is identical either
	// way.
	Workers int
}

// NewOmniRTree builds the OmniR-tree (§5.2), the family's best performer.
func NewOmniRTree(ds *Dataset, pivots []int, opts OmniOptions) (*DiskIndex, error) {
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return mtree.NewOmniRTree(ds, p, pivots, opts.MaxDistance, opts.Workers)
	})
}

// NewOmniSeqFile builds the Omni-sequential-file (§5.2).
func NewOmniSeqFile(ds *Dataset, pivots []int, opts DiskOptions) (*DiskIndex, error) {
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return table.NewOmniSeq(ds, p, pivots, 0)
	})
}

// NewOmniBPlus builds the OmniB+-tree (§5.2): one B+-tree per pivot.
func NewOmniBPlus(ds *Dataset, pivots []int, opts DiskOptions) (*DiskIndex, error) {
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return omni.NewBPlus(ds, p, pivots, 0)
	})
}

// MIndexOptions configures the M-index.
type MIndexOptions struct {
	DiskOptions
	// MaxDistance is d+, the key stride. Required.
	MaxDistance float64
	// MaxNum is the cluster split threshold (1600 when zero, per §5.3).
	MaxNum int
}

// NewMIndex builds the plain M-index (§5.3).
func NewMIndex(ds *Dataset, pivots []int, opts MIndexOptions) (*DiskIndex, error) {
	return newMIndex(ds, pivots, opts, false)
}

// NewMIndexStar builds the paper's improved M-index* — cluster MBBs,
// best-first MkNNQ, Lemma 4 validation (§5.3).
func NewMIndexStar(ds *Dataset, pivots []int, opts MIndexOptions) (*DiskIndex, error) {
	return newMIndex(ds, pivots, opts, true)
}

func newMIndex(ds *Dataset, pivots []int, opts MIndexOptions, star bool) (*DiskIndex, error) {
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return spb.NewMIndex(ds, p, pivots, spb.MIndexOptions{
			Star: star, MaxNum: opts.MaxNum, MaxDistance: opts.MaxDistance,
		})
	})
}

// SPBOptions configures the SPB-tree.
type SPBOptions struct {
	DiskOptions
	// MaxDistance is d+, the discretization range. Required.
	MaxDistance float64
	// Bits per dimension (0 = as many as fit in a 64-bit key).
	Bits int
}

// NewSPBTree builds the SPB-tree (§5.4): Hilbert-mapped distance vectors
// in an augmented B+-tree plus an SFC-ordered RAF.
func NewSPBTree(ds *Dataset, pivots []int, opts SPBOptions) (*DiskIndex, error) {
	return opts.onDisk(func(p *store.Pager) (Index, error) {
		return spb.New(ds, p, pivots, spb.Options{
			MaxDistance: opts.MaxDistance, Bits: opts.Bits,
		})
	})
}
