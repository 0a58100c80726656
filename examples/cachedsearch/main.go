// Cachedsearch: the epoch-keyed answer cache end to end — a hot query
// is computed once and then served memoized (zero distance
// computations) until a committed write bumps the epoch and
// invalidates every entry at once.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"metricindex"
)

func main() {
	// A few thousand random points in (R⁴, L2).
	rng := rand.New(rand.NewSource(11))
	objs := make([]metricindex.Object, 5000)
	for i := range objs {
		v := make(metricindex.Vector, 4)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		objs[i] = v
	}
	space := metricindex.NewSpace(metricindex.L2{})
	ds := metricindex.NewDataset(space, objs)

	pivots, err := metricindex.SelectPivots(ds, 5, 1)
	if err != nil {
		log.Fatal(err)
	}
	idx, err := metricindex.NewLAESA(ds, pivots)
	if err != nil {
		log.Fatal(err)
	}

	// Wrap the index in a live front with a 16 MB answer cache.
	live := metricindex.NewLive(ds, idx, metricindex.CacheOptions{MaxBytes: 16 << 20})
	q := metricindex.Vector{42, 42, 42, 42}

	knn := func(label string) []metricindex.Neighbor {
		space.ResetCompDists()
		nns, err := live.KNNSearch(q, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %5d compdists, nearest %d@%.3g\n",
			label, space.CompDists(), nns[0].ID, nns[0].Dist)
		return nns
	}

	first := knn("cold (computes + fills):")
	second := knn("hot (served memoized):")
	for i := range first {
		if first[i] != second[i] {
			log.Fatal("cached answer differs from computed answer")
		}
	}

	// A committed write bumps the epoch: every cached answer
	// self-invalidates, and the next search sees the new object.
	id, _, err := live.AddAttrsAt(q.Clone(), nil)
	if err != nil {
		log.Fatal(err)
	}
	third := knn("after insert (recomputes):")
	if third[0].ID != id || third[0].Dist != 0 {
		log.Fatal("post-insert answer must find the inserted object at distance 0")
	}

	st, _ := live.CacheStats()
	fmt.Printf("cache: %d hits, %d misses, %.0f%% hit rate, %d entries, %d B resident\n",
		st.Hits, st.Misses, 100*st.HitRate(), st.Entries, st.Bytes)
}
