package core

// Index is the common contract implemented by every pivot-based metric
// index in the repository. The benchmark harness (and downstream users)
// interact with all eleven structures through this interface, which keeps
// the paper's "equal footing" methodology honest.
type Index interface {
	Reader

	// Insert indexes the object already stored in the dataset under id.
	Insert(id int) error

	// Delete removes the object with the given id from the index (the
	// object must still be present in the dataset when Delete is called,
	// since several structures need its distances to locate it).
	Delete(id int) error
}

// Reader is the read half of Index: searches and cost counters. A
// front that owns its dataset's writes (epoch.Live) is a Reader, not an
// Index, so nothing can change its index without its dataset.
type Reader interface {
	// Name identifies the index in experiment output (e.g. "LAESA").
	Name() string

	// RangeSearch answers MRQ(q, r): the identifiers of all live objects
	// within distance r of q, in ascending id order.
	RangeSearch(q Object, r float64) ([]int, error)

	// KNNSearch answers MkNNQ(q, k): the k nearest live objects sorted by
	// ascending distance (ties by id). Fewer than k are returned only when
	// the dataset holds fewer than k live objects.
	KNNSearch(q Object, k int) ([]Neighbor, error)

	// PageAccesses reports the cumulative number of page reads+writes
	// performed by the index since the last ResetStats. In-memory indexes
	// return 0.
	PageAccesses() int64

	// ResetStats zeroes the page-access counter (distance computations are
	// counted by the shared Space and reset there).
	ResetStats()

	// MemBytes estimates the main-memory resident size of the index
	// structure in bytes (pivot tables, distance tables, tree nodes).
	MemBytes() int64

	// DiskBytes reports the bytes occupied on the simulated disk
	// (0 for purely in-memory indexes).
	DiskBytes() int64
}

// BuildStats captures what it cost to construct an index, mirroring the
// columns of the paper's Table 4.
type BuildStats struct {
	PageAccesses int64 // PA during construction
	CompDists    int64 // distance computations during construction
	MemBytes     int64 // resident main-memory size
	DiskBytes    int64 // simulated disk size
}
