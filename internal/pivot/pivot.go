// Package pivot implements the pivot-selection algorithms the paper
// relies on: HF (the Omni hull-of-foci outlier finder [17]), HFI (the
// HF-based incremental selector of the SPB-tree paper [12], the
// "state-of-the-art" strategy §6.1 applies to every index), PSA
// (Algorithm 1 — the paper's improvement powering EPT*), random selection,
// and the pivot-group machinery of the original EPT [24].
//
// All selection work computes distances through the dataset's counted
// Space, so pivot-selection cost shows up in construction compdists
// exactly as in Table 4.
package pivot

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"metricindex/internal/core"
)

// CPScale is the candidate-pivot pool size used by PSA and HFI. The paper
// sets it to 40 ("this value yields enough outliers in our experiments").
const CPScale = 40

// HF implements the hull-of-foci algorithm over the candidate ids: it
// finds k mutually far-apart outliers. It starts from the object farthest
// from a random seed, takes the object farthest from that as the second
// focus, and then repeatedly adds the object whose distances to the chosen
// foci deviate least from the first edge length (the Omni criterion).
func HF(ds *core.Dataset, candidates []int, k int, seed int64) []int {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	rng := rand.New(rand.NewSource(seed))
	start := candidates[rng.Intn(len(candidates))]

	// f1: farthest from the random seed object.
	f1 := farthest(ds, candidates, start, nil)
	if k == 1 {
		return []int{f1}
	}
	// f2: farthest from f1.
	chosen := map[int]bool{f1: true}
	f2 := farthest(ds, candidates, f1, chosen)
	edge := ds.Distance(f1, f2)
	foci := []int{f1, f2}
	chosen[f2] = true

	// Distances from every candidate to each chosen focus, reused across
	// rounds.
	dists := make(map[int][]float64, len(candidates))
	for _, c := range candidates {
		if chosen[c] {
			continue
		}
		dists[c] = []float64{ds.Distance(c, f1), ds.Distance(c, f2)}
	}
	for len(foci) < k {
		bestErr := math.Inf(1)
		best := -1
		for _, c := range candidates {
			if chosen[c] {
				continue
			}
			var errSum float64
			for _, d := range dists[c] {
				errSum += math.Abs(d - edge)
			}
			if errSum < bestErr {
				bestErr = errSum
				best = c
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		foci = append(foci, best)
		delete(dists, best)
		for c, dv := range dists {
			dists[c] = append(dv, ds.Distance(c, best))
		}
	}
	return foci
}

// farthest returns the candidate maximizing d(from, ·), skipping excluded
// ids and the source itself.
func farthest(ds *core.Dataset, candidates []int, from int, exclude map[int]bool) int {
	best, bestD := from, -1.0
	for _, c := range candidates {
		if c == from || exclude[c] || !ds.Live(c) {
			continue
		}
		if d := ds.Distance(from, c); d > bestD {
			bestD = d
			best = c
		}
	}
	return best
}

// Options tunes the sampled selection algorithms.
type Options struct {
	// SampleSize bounds the object sample used as HF candidates and
	// precision probes. Default 1024.
	SampleSize int
	// Pairs is the number of sampled object pairs HFI scores candidate
	// pivots on. Default 256.
	Pairs int
	// Seed drives all sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.SampleSize <= 0 {
		o.SampleSize = 1024
	}
	if o.Pairs <= 0 {
		o.Pairs = 256
	}
	return o
}

// Sample draws up to opts.SampleSize live object ids without replacement.
func Sample(ds *core.Dataset, opts Options) []int {
	opts = opts.withDefaults()
	live := ds.LiveIDs()
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if len(live) > opts.SampleSize {
		live = live[:opts.SampleSize]
	}
	return live
}

// HFI implements the incremental selection of [12]: candidates come from
// HF over a sample, and pivots are added greedily to maximize the mean
// ratio between the pivot-space lower bound and the true distance over
// sampled object pairs — i.e. to make the mapped vector space resemble the
// original metric space as closely as possible. It chooses among CPScale
// candidates, so a request for CPScale pivots or more is an error; on a
// sample smaller than that, a request for every candidate or more gets the
// candidates.
func HFI(ds *core.Dataset, numPivots int, opts Options) ([]int, error) {
	opts = opts.withDefaults()
	if numPivots <= 0 {
		return nil, fmt.Errorf("pivot: non-positive pivot count %d", numPivots)
	}
	if numPivots >= CPScale {
		return nil, fmt.Errorf("pivot: HFI selects fewer pivots than its %d candidates (CPScale); %d requested", CPScale, numPivots)
	}
	if ds.Count() == 0 {
		return nil, fmt.Errorf("pivot: empty dataset")
	}
	sample := Sample(ds, opts)
	cands := HF(ds, sample, min(CPScale, len(sample)), opts.Seed+1)
	if numPivots >= len(cands) {
		return cands[:min(numPivots, len(cands))], nil
	}

	rng := rand.New(rand.NewSource(opts.Seed + 2))
	type pair struct {
		a, b int
		d    float64
	}
	pairs := make([]pair, 0, opts.Pairs)
	for len(pairs) < opts.Pairs {
		a := sample[rng.Intn(len(sample))]
		b := sample[rng.Intn(len(sample))]
		if a == b {
			continue
		}
		d := ds.Distance(a, b)
		if d == 0 {
			continue
		}
		pairs = append(pairs, pair{a, b, d})
	}
	// Pre-compute candidate-to-pair-endpoint distances.
	candDist := make([][]float64, len(cands)) // candDist[ci][pi*2+side]
	for ci, c := range cands {
		dv := make([]float64, 2*len(pairs))
		for pi, pr := range pairs {
			dv[2*pi] = ds.Distance(c, pr.a)
			dv[2*pi+1] = ds.Distance(c, pr.b)
		}
		candDist[ci] = dv
	}

	chosen := make([]int, 0, numPivots)
	used := make([]bool, len(cands))
	lb := make([]float64, len(pairs)) // current best lower bound per pair
	for len(chosen) < numPivots {
		bestScore := -1.0
		bestCi := -1
		for ci := range cands {
			if used[ci] {
				continue
			}
			var score float64
			dv := candDist[ci]
			for pi, pr := range pairs {
				b := math.Abs(dv[2*pi] - dv[2*pi+1])
				if lb[pi] > b {
					b = lb[pi]
				}
				score += b / pr.d
			}
			if score > bestScore {
				bestScore = score
				bestCi = ci
			}
		}
		if bestCi < 0 {
			// No candidate scores: every score is NaN, as when a sampled
			// pair holds a NaN row, so none beats another. Take the first
			// one left, as PSAState.Assign does; any pivot keeps Lemma 1
			// exact.
			bestCi = slices.Index(used, false)
		}
		used[bestCi] = true
		chosen = append(chosen, cands[bestCi])
		dv := candDist[bestCi]
		for pi := range pairs {
			if b := math.Abs(dv[2*pi] - dv[2*pi+1]); b > lb[pi] {
				lb[pi] = b
			}
		}
	}
	return chosen, nil
}

// Random selects k distinct live object ids uniformly at random.
func Random(ds *core.Dataset, k int, seed int64) []int {
	live := ds.LiveIDs()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if k > len(live) {
		k = len(live)
	}
	return live[:k]
}
