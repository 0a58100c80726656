// Package dataset generates laptop-scale synthetic stand-ins for the four
// datasets of the paper's experimental study (§6.1, Table 2) and the query
// workloads run against them.
//
// The real LA / Words / Color datasets are not redistributable, so each
// generator reproduces the *properties* that drive index behaviour —
// dimensionality, intrinsic dimensionality (skew), distance function,
// value domain, and object size — per the substitution table in DESIGN.md.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metricindex/internal/core"
)

// Kind names one of the four benchmark datasets.
type Kind string

// The four datasets of Table 2.
const (
	LA        Kind = "LA"        // 2-D locations, L2-norm
	Words     Kind = "Words"     // words, edit distance
	Color     Kind = "Color"     // 282-dim features, L1-norm
	Synthetic Kind = "Synthetic" // 20-dim integer vectors, L∞-norm
)

// AllKinds lists the datasets in the paper's order.
var AllKinds = []Kind{LA, Words, Color, Synthetic}

// Config controls generation.
type Config struct {
	// N is the number of database objects.
	N int
	// Queries is the number of held-out query objects (drawn from the
	// same distribution but not inserted into the dataset).
	Queries int
	// Seed makes generation deterministic.
	Seed int64
}

// Generated bundles a dataset with its query workload.
type Generated struct {
	Kind    Kind
	Dataset *core.Dataset
	Queries []core.Object
	// MaxDistance estimates d+ (the maximum pairwise distance), needed by
	// the M-index key mapping and the SPB-tree discretization.
	MaxDistance float64
}

// Generate builds the named dataset.
func Generate(kind Kind, cfg Config) (*Generated, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dataset: non-positive N %d", cfg.N)
	}
	if cfg.Queries < 0 {
		return nil, fmt.Errorf("dataset: negative query count %d", cfg.Queries)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch kind {
	case LA:
		return genLA(cfg, rng), nil
	case Words:
		return genWords(cfg, rng), nil
	case Color:
		return genColor(cfg, rng), nil
	case Synthetic:
		return genSynthetic(cfg, rng), nil
	default:
		return nil, fmt.Errorf("dataset: unknown kind %q", kind)
	}
}

// genLA emulates the LA dataset: 2-D geographic locations with heavy
// clustering (a city's street grid), coordinates mapped to [0, 10000],
// compared with the L2-norm. Intrinsic dimensionality lands in the low
// single digits, like the paper's 5.4.
func genLA(cfg Config, rng *rand.Rand) *Generated {
	const dim = 2
	nClusters := 24
	centers := make([]core.Vector, nClusters)
	spreads := make([]float64, nClusters)
	for i := range centers {
		centers[i] = core.Vector{rng.Float64() * 10000, rng.Float64() * 10000}
		spreads[i] = 120 + rng.Float64()*900
	}
	sample := func() core.Object {
		if rng.Float64() < 0.12 { // background noise, keeps outliers around
			return core.Vector{rng.Float64() * 10000, rng.Float64() * 10000}
		}
		c := rng.Intn(nClusters)
		v := make(core.Vector, dim)
		for d := 0; d < dim; d++ {
			x := centers[c][d] + rng.NormFloat64()*spreads[c]
			v[d] = clamp(x, 0, 10000)
		}
		return v
	}
	return assemble(LA, cfg, core.L2{}, sample)
}

// genWords emulates the Words dataset: English-like words of length 1..34
// built from weighted syllables, compared with edit distance. The skewed
// syllable inventory yields the very low intrinsic dimensionality (≈1.2)
// the paper reports.
func genWords(cfg Config, rng *rand.Rand) *Generated {
	syllables := []string{
		"an", "ar", "as", "at", "ba", "be", "ca", "co", "con", "de", "di",
		"dis", "ed", "en", "er", "es", "ex", "fo", "in", "ing", "ion", "is",
		"it", "la", "le", "li", "lo", "ly", "ma", "me", "mo", "na", "ne",
		"no", "nt", "on", "or", "ou", "per", "pre", "pro", "ra", "re", "ri",
		"ro", "se", "si", "so", "st", "sta", "te", "ter", "ti", "tion", "to",
		"tra", "un", "ur", "us", "ve", "ver",
	}
	sample := func() core.Object {
		// Word length distribution with a heavy spread — many short
		// words, a tail of long compounds (lengths 1..34) — which gives
		// the edit-distance distribution the high variance (and hence
		// the very low intrinsic dimensionality ≈1.2) of Table 2.
		var b []byte
		n := 0
		switch r := rng.Float64(); {
		case r < 0.06:
			b = append(b, byte('a'+rng.Intn(26)))
		case r < 0.40:
			n = 1 + rng.Intn(2)
		case r < 0.85:
			n = 2 + rng.Intn(4)
		default:
			n = 6 + rng.Intn(10)
		}
		for range n {
			b = append(b, syllables[skewIndex(rng, len(syllables))]...)
		}
		if len(b) > 34 {
			b = b[:34]
		}
		return core.Word(b)
	}
	return assemble(Words, cfg, core.Edit{}, sample)
}

// genColor emulates the Color dataset: 282-dimensional MPEG-7 feature
// vectors with strong inter-dimension correlation (features are grouped
// descriptors), values mapped to [-255, 255], compared with the L1-norm.
func genColor(cfg Config, rng *rand.Rand) *Generated {
	const dim = 282
	const blocks = 6 // few latent factors => strong correlation, like MPEG-7 descriptors
	loadings := make([][]float64, dim)
	base := make([]float64, dim)
	for d := 0; d < dim; d++ {
		loadings[d] = make([]float64, blocks)
		b := d * blocks / dim
		loadings[d][b] = 0.9 + rng.Float64()*0.4
		loadings[d][(b+1)%blocks] = rng.Float64() * 0.3
		base[d] = rng.Float64()*200 - 100
	}
	sample := func() core.Object {
		factors := make([]float64, blocks)
		for b := range factors {
			factors[b] = rng.NormFloat64() * 80
		}
		v := make(core.Vector, dim)
		for d := 0; d < dim; d++ {
			x := base[d]
			for b := 0; b < blocks; b++ {
				x += loadings[d][b] * factors[b]
			}
			x += rng.NormFloat64() * 12
			v[d] = clamp(x, -255, 255)
		}
		return v
	}
	return assemble(Color, cfg, core.L1{}, sample)
}

// genSynthetic follows the paper's recipe exactly: 20 dimensions, the
// first five generated at random, the rest linear combinations of the
// first five; integer values in [0, 10000]; compared with the (discrete)
// L∞-norm so BKT and FQT apply.
func genSynthetic(cfg Config, rng *rand.Rand) *Generated {
	const dim = 20
	const free = 5
	coef := make([][]float64, dim-free)
	for i := range coef {
		coef[i] = make([]float64, free)
		var norm float64
		for j := range coef[i] {
			coef[i][j] = rng.Float64()
			norm += coef[i][j]
		}
		for j := range coef[i] {
			coef[i][j] /= norm
		}
	}
	sample := func() core.Object {
		v := make(core.IntVector, dim)
		f := make([]float64, free)
		for j := 0; j < free; j++ {
			f[j] = rng.Float64() * 10000
			v[j] = int32(f[j])
		}
		for i := 0; i < dim-free; i++ {
			var x float64
			for j := 0; j < free; j++ {
				x += coef[i][j] * f[j]
			}
			v[free+i] = int32(clamp(x, 0, 10000))
		}
		return v
	}
	return assemble(Synthetic, cfg, core.IntLInf{}, sample)
}

// assemble draws N database objects and Queries query objects and
// estimates the maximum pairwise distance from a sample.
func assemble(kind Kind, cfg Config, m core.Metric, sample func() core.Object) *Generated {
	objs := make([]core.Object, cfg.N)
	for i := range objs {
		objs[i] = sample()
	}
	qs := make([]core.Object, cfg.Queries)
	for i := range qs {
		qs[i] = sample()
	}
	ds := core.NewDataset(core.NewSpace(m), objs)
	return &Generated{
		Kind:        kind,
		Dataset:     ds,
		Queries:     qs,
		MaxDistance: estimateMaxDistance(m, objs),
	}
}

// estimateMaxDistance approximates d+ from a far-point walk plus random
// pairs, then pads by 10% so it upper-bounds unseen pairs. It uses the raw
// metric, not the counted space, because it is experiment setup.
func estimateMaxDistance(m core.Metric, objs []core.Object) float64 {
	if len(objs) == 0 {
		return 1
	}
	step := len(objs)/512 + 1
	far := objs[0]
	var best float64
	for iter := 0; iter < 3; iter++ {
		next := far
		for i := 0; i < len(objs); i += step {
			if d := m.Distance(far, objs[i]); d > best {
				best = d
				next = objs[i]
			}
		}
		far = next
	}
	return best * 1.1
}

// CalibrateRadius returns the range-query radius whose expected
// selectivity matches the requested fraction of the dataset (the paper's
// r = 4%..64% axis). It samples query-to-object distances with the raw
// metric (setup cost is not charged to compdists).
func CalibrateRadius(g *Generated, selectivity float64) float64 {
	m := g.Dataset.Space().Metric()
	// Sample over live identifiers, not raw slots: a sparse dataset (a
	// shard mirror, or one with many deletions) can alias a slot stride
	// onto nothing but empty slots.
	ids := g.Dataset.LiveIDs()
	if len(ids) == 0 {
		return 0
	}
	qs := g.Queries
	if len(qs) == 0 {
		for _, id := range ids[:min(len(ids), 16)] {
			qs = append(qs, g.Dataset.Object(id))
		}
	}
	stepQ := len(qs)/16 + 1
	stepO := len(ids)/512 + 1
	var dists []float64
	for qi := 0; qi < len(qs); qi += stepQ {
		for oi := 0; oi < len(ids); oi += stepO {
			dists = append(dists, m.Distance(qs[qi], g.Dataset.Object(ids[oi])))
		}
	}
	sort.Float64s(dists)
	idx := int(selectivity * float64(len(dists)))
	if idx >= len(dists) {
		idx = len(dists) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return dists[idx]
}

// IntrinsicDimensionality estimates ρ = μ²/(2σ²) from sampled pairwise
// distances, the statistic of Table 2. Pairs are drawn over the live
// objects — a dataset with deletions has empty slots — and a draw of one
// object twice is skipped, so μ and σ² average the distances actually
// sampled. Fewer than two live objects give +Inf.
func IntrinsicDimensionality(g *Generated) float64 {
	m := g.Dataset.Space().Metric()
	ids := g.Dataset.LiveIDs()
	rng := rand.New(rand.NewSource(1))
	n := len(ids)
	var sum, sumSq float64
	used := 0
	for range min(20000, n*(n-1)/2) {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		d := m.Distance(g.Dataset.Object(ids[a]), g.Dataset.Object(ids[b]))
		sum += d
		sumSq += d * d
		used++
	}
	if used == 0 {
		return math.Inf(1)
	}
	mean := sum / float64(used)
	varr := sumSq/float64(used) - mean*mean
	if varr <= 0 {
		return math.Inf(1)
	}
	return mean * mean / (2 * varr)
}

// skewIndex draws an index in [0,n) with a Zipf-ish skew favouring low
// indices, giving the syllable inventory a natural-language frequency
// profile.
func skewIndex(rng *rand.Rand, n int) int {
	x := rng.Float64()
	return int(x * x * float64(n))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
