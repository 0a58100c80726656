package core

import (
	"runtime"
	"sync"
)

// ParallelFor splits the half-open range [0, n) into one contiguous chunk
// per worker and invokes fn(start, end) for each chunk. It is the shared
// chunked-worker helper behind every parallel index construction (§6.2:
// "since objects are independent of each other, the pre-computed distances
// for each object can be computed in parallel").
//
// workers semantics: 0 or 1 runs fn inline on the calling goroutine (no
// concurrency, no goroutine overhead); negative uses GOMAXPROCS; any other
// value spawns min(workers, n) goroutines. ParallelFor returns after every
// chunk completes. fn must be safe to call concurrently for disjoint
// ranges.
func ParallelFor(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= n {
			break
		}
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			fn(start, end)
		}(start, end)
	}
	wg.Wait()
}

// BuildDistCols computes the struct-of-arrays pivot-distance table shared
// by the table-family indexes (LAESA, CPT): ids32[row] = ids[row] and
// cols[i][row] = d(object ids[row], pivotVals[i]), one contiguous column
// per pivot, with the rows fanned out across workers goroutines
// (ParallelFor semantics). Each worker computes its rows through the
// batch kernel (one DistanceMany per row) and books them in one count,
// so the compdists total is a sequential build's; row order follows ids
// regardless of worker count, so the table is identical to a sequential
// build.
func BuildDistCols(ds *Dataset, ids []int, pivotVals []Object, workers int) ([]int32, [][]float64) {
	l := len(pivotVals)
	ids32 := make([]int32, len(ids))
	cols := make([][]float64, l)
	for i := range cols {
		cols[i] = make([]float64, len(ids))
	}
	sp := ds.Space()
	ParallelFor(len(ids), workers, func(start, end int) {
		qd := make([]float64, l)
		for row := start; row < end; row++ {
			id := ids[row]
			ids32[row] = int32(id)
			sp.distances(ds.Object(id), pivotVals, qd)
			for i := range cols {
				cols[i][row] = qd[i]
			}
		}
		sp.CountDistances((end - start) * l)
	})
	return ids32, cols
}
