package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
)

// The rungs of the layer ladder, top to bottom. A workload lists the
// rungs that exist for it; its first rung is the one the end-to-end run
// drives.
const (
	rungLoopback = "loopback"
	rungHandler  = "server.handler"
	rungLive     = "epoch.live"
	rungIndex    = "index"
	rungKernel   = "core.kernel"
)

const (
	knnK        = 10
	batchSize   = 16
	numPivots   = 5
	cacheBytes  = 64 << 20 // mserve's -cache-mb default
	walPreload  = 1000     // journaled writes the serve-mixed restart replays
	insertPool  = 4096     // held-out objects the writing workloads insert
	datasetSeed = 42       // generator seed of every dataset (internal/bench's default)
	filterCheck = 64       // pool queries whose filtered answers are brute-forced
)

// filterBattery is cmd/loadgen's default battery: it makes the planner
// pick every strategy (rare predicates plan as pre, mid-selectivity ones
// as probe, broad ones as post).
var filterBattery = []string{
	`stock < 25`,
	`stock < 90`,
	`category = "kappa" AND stock < 50`,
	`price > 200`,
	`price < 10 OR tags = "sale"`,
	`category IN ("alpha", "beta") AND stock >= 50`,
}

// categories is the vocabulary dataset.AttachAttrs draws from, so bags
// the workloads insert match the same predicates as the generated ones.
var categories = []string{
	"alpha", "beta", "gamma", "delta", "epsilon",
	"zeta", "eta", "theta", "iota", "kappa",
}

type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opBatch
	opInsert
	opDelete
	opSetAttrs
	numOpKinds
)

func (k opKind) write() bool { return k >= opInsert }

// op is one generated operation. It names pool entries by position, so
// an op list is a pure function of the seed and runs unchanged against
// any rung.
type op struct {
	kind   opKind
	q      int32   // query pool entry (opKNN, opRange)
	filter int8    // filterBattery entry carried by a search, -1 for none
	obj    int32   // insert pool entry (opInsert); row of the client's id stripe (opSetAttrs)
	batch  []int32 // query pool entries of an opBatch
	cat    uint8   // attribute bag of opInsert and opSetAttrs
	stock  uint8
	price  float64
}

func (o op) attrs() core.Attrs {
	return core.Attrs{
		"category": core.StringValue(categories[o.cat]),
		"price":    core.FloatValue(o.price),
		"stock":    core.IntValue(int64(o.stock)),
	}
}

func (o op) attrsJSON() string {
	return fmt.Sprintf(`{"category":%q,"price":%g,"stock":%d}`, categories[o.cat], o.price, o.stock)
}

// spec is one workload. The sizes are the ones BENCHMARK.json is
// measured at; tests shrink n.
type spec struct {
	name  string
	kind  dataset.Kind
	n     int
	pool  int     // query pool size
	index string  // "laesa" or "spb"
	sel   float64 // range-query selectivity the radius is calibrated to
	rungs []string
	// mix is the share of each op kind; filtered is the share of
	// searches that carry a filter.
	mix      [numOpKinds]float64
	filtered float64
	zipf     bool    // pool entries drawn zipf(1.2) instead of uniformly
	rate     float64 // open-loop arrivals per second; 0 means closed loop
	restore  bool    // set-up restores a snapshot and replays a WAL
	execPass bool    // the traced run also prices the batch engine over this index
}

func (sp *spec) writes() bool { return sp.mix[opInsert] > 0 }
func (sp *spec) top() string  { return sp.rungs[0] }

var workloads = []*spec{
	{
		name: "table-la", kind: dataset.LA, n: 1000000, pool: 512, index: "laesa", sel: 0.001,
		rungs: []string{rungIndex, rungKernel},
		mix:   [numOpKinds]float64{opKNN: 0.7, opRange: 0.3}, execPass: true,
	},
	{
		name: "table-color", kind: dataset.Color, n: 50000, pool: 256, index: "laesa", sel: 0.001,
		rungs: []string{rungIndex, rungKernel},
		mix:   [numOpKinds]float64{opKNN: 0.7, opRange: 0.3},
	},
	{
		name: "disk-spb-la", kind: dataset.LA, n: 200000, pool: 512, index: "spb", sel: 0.001,
		rungs: []string{rungIndex, rungKernel},
		mix:   [numOpKinds]float64{opKNN: 0.7, opRange: 0.3},
	},
	{
		name: "serve-mixed", kind: dataset.LA, n: 100000, pool: 1024, index: "laesa", sel: 0.0005,
		rungs:    []string{rungLoopback, rungHandler, rungLive, rungIndex, rungKernel},
		mix:      [numOpKinds]float64{opKNN: 0.64, opRange: 0.30, opBatch: 0.03, opInsert: 0.02, opDelete: 0.01},
		filtered: 0.4, zipf: true, rate: 300, restore: true, execPass: true,
	},
	{
		name: "live-churn", kind: dataset.LA, n: 100000, pool: 1024, index: "laesa", sel: 0.0005,
		rungs:    []string{rungLive, rungIndex, rungKernel},
		mix:      [numOpKinds]float64{opKNN: 0.20, opInsert: 0.35, opDelete: 0.35, opSetAttrs: 0.10},
		filtered: 0.5,
	},
}

func workloadByName(name string) (*spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent stream from the run seed, so the
// dataset, the pivots and every client's op list share nothing but it.
func subSeed(seed int64, label string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, n)
	return int64(h.Sum64() >> 1)
}

// opGen produces one client's op list. Deletes only ever target ids the
// client inserted earlier, so the generator tracks how many of those are
// outstanding and turns a delete into an insert when there are none.
type opGen struct {
	sp          *spec
	rng         *rand.Rand
	zipf        *rand.Zipf
	stripe      int // rows of the initial dataset this client may re-attribute
	outstanding int
}

func newOpGen(sp *spec, seed int64, client, clients, outstanding int) *opGen {
	rng := rand.New(rand.NewSource(subSeed(seed, "ops", client)))
	g := &opGen{sp: sp, rng: rng, stripe: sp.n / clients, outstanding: outstanding}
	if sp.zipf {
		g.zipf = rand.NewZipf(rng, 1.2, 1, uint64(sp.pool-1))
	}
	return g
}

func (g *opGen) query() int32 {
	if g.zipf != nil {
		return int32(g.zipf.Uint64())
	}
	return int32(g.rng.Intn(g.sp.pool))
}

func (g *opGen) next() op {
	u := g.rng.Float64()
	kind := opKNN
	for k, share := range g.sp.mix {
		if u < share {
			kind = opKind(k)
			break
		}
		u -= share
	}
	if kind == opDelete && g.outstanding == 0 {
		kind = opInsert
	}
	o := op{kind: kind, filter: -1}
	switch kind {
	case opKNN, opRange:
		o.q = g.query()
		if g.rng.Float64() < g.sp.filtered {
			o.filter = int8(g.rng.Intn(len(filterBattery)))
		}
	case opBatch:
		o.batch = make([]int32, batchSize)
		for i := range o.batch {
			o.batch[i] = g.query()
		}
	case opInsert, opSetAttrs:
		if kind == opInsert {
			o.obj = int32(g.rng.Intn(insertPool))
			g.outstanding++
		} else {
			o.obj = int32(g.rng.Intn(g.stripe))
		}
		o.cat = uint8(g.rng.Intn(len(categories)))
		o.stock = uint8(g.rng.Intn(100))
		o.price = math.Round(2000*math.Exp(g.rng.NormFloat64())) / 100
	case opDelete:
		g.outstanding--
	}
	return o
}

// take returns the next n ops of the list.
func (g *opGen) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}
