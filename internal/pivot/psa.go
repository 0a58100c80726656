package pivot

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"metricindex/internal/core"
)

// PSAState is the reusable state of Algorithm 1: the HF candidate pool and
// the probe sample with pre-computed probe-to-candidate distances. Indexes
// keep it to assign pivots to later insertions. Candidate and probe object
// values are snapshotted so the state survives dataset deletions.
type PSAState struct {
	CandIDs   []int32
	CandVals  []core.Object
	ProbeVals []core.Object
	// ProbeCand[si][ci] = d(probe si, candidate ci).
	ProbeCand [][]float64
}

// NewPSAState samples the candidate pool (HF over a sample, CPScale
// candidates) and the probe set, charging the pre-computation to the
// counted space.
func NewPSAState(ds *core.Dataset, opts Options) (*PSAState, error) {
	opts = opts.withDefaults()
	if ds.Count() == 0 {
		return nil, fmt.Errorf("pivot: empty dataset")
	}
	probeOpts := opts
	probeOpts.SampleSize = min(32, opts.SampleSize)
	probeOpts.Seed = opts.Seed + 11
	probeIDs := Sample(ds, probeOpts)
	candIDs := HF(ds, Sample(ds, opts), min(CPScale, ds.Count()), opts.Seed+12)

	st := &PSAState{
		CandIDs:   make([]int32, len(candIDs)),
		CandVals:  make([]core.Object, len(candIDs)),
		ProbeVals: make([]core.Object, len(probeIDs)),
		ProbeCand: make([][]float64, len(probeIDs)),
	}
	for ci, c := range candIDs {
		st.CandIDs[ci] = int32(c)
		st.CandVals[ci] = ds.Object(c)
	}
	sp := ds.Space()
	for si, s := range probeIDs {
		st.ProbeVals[si] = ds.Object(s)
		row := make([]float64, len(candIDs))
		for ci := range candIDs {
			row[ci] = sp.Distance(st.ProbeVals[si], st.CandVals[ci])
		}
		st.ProbeCand[si] = row
	}
	return st, nil
}

// Assign runs the greedy inner loop of Algorithm 1 for one object value:
// it picks the l candidates maximizing the expected D(o,s)/d(o,s) ratio
// over the probes, returning pivot ids and distances.
func (st *PSAState) Assign(sp *core.Space, o core.Object, l int) ([]int32, []float64) {
	if l > len(st.CandVals) {
		l = len(st.CandVals)
	}
	oCand := make([]float64, len(st.CandVals))
	for ci, c := range st.CandVals {
		oCand[ci] = sp.Distance(o, c)
	}
	oProbe := make([]float64, len(st.ProbeVals))
	for si, s := range st.ProbeVals {
		oProbe[si] = sp.Distance(o, s)
	}
	cur := make([]float64, len(st.ProbeVals))
	used := make([]bool, len(st.CandVals))
	pv := make([]int32, 0, l)
	dv := make([]float64, 0, l)
	for len(pv) < l {
		bestScore := math.Inf(-1)
		bestCi := -1
		for ci := range st.CandVals {
			if used[ci] {
				continue
			}
			var score float64
			for si := range st.ProbeVals {
				b := math.Abs(oCand[ci] - st.ProbeCand[si][ci])
				if cur[si] > b {
					b = cur[si]
				}
				if oProbe[si] > 0 {
					score += b / oProbe[si]
				}
			}
			if score > bestScore {
				bestScore = score
				bestCi = ci
			}
		}
		if bestCi < 0 {
			// No candidate scores: every score is NaN, as for an object at
			// an infinite or NaN distance from the probes, so none beats
			// another. Take the first one left; the row stays exact, since
			// Lemma 1 holds for whatever pivots a row keeps.
			bestCi = slices.Index(used, false)
		}
		used[bestCi] = true
		pv = append(pv, st.CandIDs[bestCi])
		dv = append(dv, oCand[bestCi])
		for si := range st.ProbeVals {
			if b := math.Abs(oCand[bestCi] - st.ProbeCand[si][bestCi]); b > cur[si] {
				cur[si] = b
			}
		}
	}
	return pv, dv
}

// Groups is the original EPT selection state [24]: l groups of m random
// pivots each, plus the estimated mean distance μ_p per pivot. Each object
// takes one pivot per group — the one maximizing |d(o,p) − μ_p| (the
// "extreme" pivot, Fig 4). Pivot values are snapshotted so the groups
// survive dataset deletions.
type Groups struct {
	// M is the group size, L the number of groups.
	M, L int
	// IDs[g] lists the m pivot ids of group g.
	IDs [][]int32
	// Vals[g] holds the corresponding object values.
	Vals [][]core.Object
	// Mu[g][j] is the estimated mean of d(o, Vals[g][j]) over the dataset.
	Mu [][]float64
}

// SelectGroups draws l random groups of m pivots and estimates each
// pivot's μ from a sample, charging the estimation distances to the
// counted space (they are construction cost, per Table 4).
func SelectGroups(ds *core.Dataset, l, m int, opts Options) (*Groups, error) {
	opts = opts.withDefaults()
	if l <= 0 || m <= 0 {
		return nil, fmt.Errorf("pivot: invalid EPT group shape l=%d m=%d", l, m)
	}
	live := ds.LiveIDs()
	if len(live) == 0 {
		return nil, fmt.Errorf("pivot: empty dataset")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	sOpts := opts
	sOpts.SampleSize = min(64, opts.SampleSize)
	sOpts.Seed = opts.Seed + 21
	sample := Sample(ds, sOpts)
	sp := ds.Space()
	g := &Groups{
		M: m, L: l,
		IDs:  make([][]int32, l),
		Vals: make([][]core.Object, l),
		Mu:   make([][]float64, l),
	}
	for gi := 0; gi < l; gi++ {
		g.IDs[gi] = make([]int32, m)
		g.Vals[gi] = make([]core.Object, m)
		g.Mu[gi] = make([]float64, m)
		for j := 0; j < m; j++ {
			p := live[rng.Intn(len(live))]
			g.IDs[gi][j] = int32(p)
			g.Vals[gi][j] = ds.Object(p)
			var sum float64
			for _, s := range sample {
				sum += sp.Distance(g.Vals[gi][j], ds.Object(s))
			}
			g.Mu[gi][j] = sum / float64(len(sample))
		}
	}
	return g, nil
}

// ReestimateMu recomputes every group pivot's μ from a fresh sample.
// The original EPT re-estimates the expected distances whenever an object
// is inserted, which is why its update cost dwarfs EPT*'s in Table 6
// ("EPT incurs high estimation costs when selecting pivots").
func (g *Groups) ReestimateMu(ds *core.Dataset, opts Options) {
	opts = opts.withDefaults()
	sOpts := opts
	sOpts.SampleSize = min(32, opts.SampleSize)
	sample := Sample(ds, sOpts)
	if len(sample) == 0 {
		return
	}
	sp := ds.Space()
	for gi := range g.Vals {
		for j := range g.Vals[gi] {
			var sum float64
			for _, s := range sample {
				sum += sp.Distance(g.Vals[gi][j], ds.Object(s))
			}
			g.Mu[gi][j] = sum / float64(len(sample))
		}
	}
}

// AssignExtreme picks, for one object value, its extreme pivot in every
// group, returning pivot ids and distances (the EPT row of Fig 5).
func (g *Groups) AssignExtreme(sp *core.Space, o core.Object) ([]int32, []float64) {
	pv := make([]int32, g.L)
	dv := make([]float64, g.L)
	for gi := 0; gi < g.L; gi++ {
		bestDev := math.Inf(-1)
		var bestP int32
		var bestD float64
		for j := range g.Vals[gi] {
			d := sp.Distance(o, g.Vals[gi][j])
			dev := math.Abs(d - g.Mu[gi][j])
			if dev > bestDev {
				bestDev = dev
				bestP = g.IDs[gi][j]
				bestD = d
			}
		}
		pv[gi] = bestP
		dv[gi] = bestD
	}
	return pv, dv
}

// EstimateGroupSize approximates the optimal m for a fixed l via the
// paper's Equation (1): cost(m) = m·l + n·(1 − Pr(|X−Y| > r))^l, with the
// probability estimated empirically from sampled objects and a radius r
// set to a typical query radius. It returns a value in [2, 8] — beyond
// that the m·l term dominates at laptop scale.
func EstimateGroupSize(ds *core.Dataset, l int, radius float64, opts Options) int {
	opts = opts.withDefaults()
	sOpts := opts
	sOpts.SampleSize = min(48, opts.SampleSize)
	sample := Sample(ds, sOpts)
	if len(sample) < 4 {
		return 2
	}
	rng := rand.New(rand.NewSource(opts.Seed + 31))
	var hit, tot int
	for t := 0; t < 200; t++ {
		p := sample[rng.Intn(len(sample))]
		a := sample[rng.Intn(len(sample))]
		b := sample[rng.Intn(len(sample))]
		if p == a || p == b || a == b {
			continue
		}
		if math.Abs(ds.Distance(a, p)-ds.Distance(b, p)) > radius {
			hit++
		}
		tot++
	}
	if tot == 0 {
		return 2
	}
	p := float64(hit) / float64(tot)
	n := float64(ds.Count())
	bestM, bestCost := 2, math.Inf(1)
	for m := 2; m <= 8; m++ {
		// Taking the extreme of m candidates roughly boosts the pruning
		// probability to 1-(1-p)^m.
		pm := 1 - math.Pow(1-p, float64(m))
		cost := float64(m*l) + n*math.Pow(1-pm, float64(l))
		if cost < bestCost {
			bestCost = cost
			bestM = m
		}
	}
	return bestM
}
