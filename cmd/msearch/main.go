// Command msearch builds a chosen pivot-based metric index over a
// dataset file (written by datagen) and runs the query workload against
// it, printing per-query results and the paper's cost metrics.
//
// Usage:
//
//	datagen -kind Words -n 5000 -out words.midx
//	msearch -data words.midx -index SPB-tree -k 10
//	msearch -data words.midx -index MVPT -radius 2
//	msearch -data words.midx -index LAESA -k 5 -verify
//
// -index takes any of the 18 kinds of the family registry (internal/bench):
// AESA, LAESA, EPT, EPT*, DiskEPT*, CPT, BKT, FQT, FQA, MVPT, VPT,
// PM-tree, Omni-seq, OmniB+-tree, OmniR-tree, M-index, M-index* and
// SPB-tree. BKT, FQT and FQA need a discrete metric (Words).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"metricindex/internal/bench"
	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/exec"
)

func main() {
	var (
		data    = flag.String("data", "", "dataset file from datagen (required)")
		index   = flag.String("index", "SPB-tree", "index: "+bench.Names())
		pivots  = flag.Int("pivots", 5, "number of pivots |P|")
		k       = flag.Int("k", 0, "run MkNNQ with this k")
		radius  = flag.Float64("radius", 0, "run MRQ with this radius")
		verify  = flag.Bool("verify", false, "check every answer against a linear scan")
		maxShow = flag.Int("show", 5, "results printed per query")
		workers = flag.Int("workers", 0, "build the index with this many parallel workers and answer the whole workload through the concurrent batch engine (0 = sequential build and per-query loop, -1 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0, "partition the dataset across this many sub-indexes and scatter-gather every query over them concurrently (0/1 = unsharded)")
		cacheMB = flag.Int("cache-mb", 0, "epoch-keyed answer cache budget in MB; repeated queries are served memoized (0 disables)")
		repeat  = flag.Int("repeat", 1, "passes over the workload (answers printed once); with -cache-mb, later passes demonstrate the hit path")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "missing -data; generate one with datagen")
		os.Exit(2)
	}
	if *k == 0 && *radius == 0 {
		*k = 10
	}

	gen, err := dataset.Load(*data)
	if err != nil {
		fail(err)
	}
	fmt.Printf("loaded %s: %d objects (%s), %d queries\n",
		*data, gen.Dataset.Count(), gen.Dataset.Space().Metric().Name(), len(gen.Queries))

	builder, err := bench.BuilderByName(*index)
	if err != nil {
		fail(err)
	}
	env, err := bench.EnvFor(gen, bench.Config{N: gen.Dataset.Count(), Queries: len(gen.Queries), Pivots: *pivots, Workers: *workers, Shards: *shards})
	if err != nil {
		fail(err)
	}
	if *shards > 1 {
		fmt.Printf("building %s over %d pivots, sharded %d ways…\n", *index, *pivots, *shards)
	} else {
		fmt.Printf("building %s over %d pivots…\n", *index, *pivots)
	}
	built, cost, err := bench.MeasureBuild(env, builder)
	if err != nil {
		fail(err)
	}
	fmt.Printf("built in %v: %d compdists, %d PA, %d KB memory, %d KB disk\n\n",
		cost.Time.Round(time.Millisecond), cost.CompDists, cost.PA,
		cost.MemBytes/1024, cost.DiskBytes/1024)

	// With -cache-mb the workload queries a Live front over the built
	// index with the answer cache attached; answers are identical.
	var idx core.Reader = built.Index
	var live *epoch.Live
	if *cacheMB > 0 {
		live = epoch.NewLive(gen.Dataset, built.Index)
		live.SetCache(cache.New(cache.Options{MaxBytes: int64(*cacheMB) << 20}))
		idx = live
	}

	if *workers != 0 {
		if err := runBatch(gen, idx, *k, *radius, *verify, *maxShow, *workers, *repeat); err != nil {
			fail(err)
		}
		printCacheStats(live)
		return
	}

	sp := gen.Dataset.Space()
	for qi, q := range gen.Queries {
		sp.ResetCompDists()
		idx.ResetStats()
		start := time.Now()
		var ids []int
		var nns []core.Neighbor
		if *k > 0 {
			nns, err = idx.KNNSearch(q, *k)
		} else {
			ids, err = idx.RangeSearch(q, *radius)
		}
		if err != nil {
			fail(err)
		}
		elapsed := time.Since(start)
		if *k > 0 {
			printKNN(qi, *k, *maxShow, nns)
		} else {
			printMRQ(qi, *radius, *maxShow, ids)
		}
		fmt.Printf("   [%d dists, %d PA, %v]\n", sp.CompDists(), idx.PageAccesses(), elapsed.Round(time.Microsecond))

		if *verify {
			if *k > 0 {
				err = verifyKNN(gen, qi, *k, nns)
			} else {
				err = verifyMRQ(gen, qi, *radius, ids)
			}
			if err != nil {
				fail(err)
			}
			fmt.Println("          verified against linear scan ✓")
		}
	}

	// Repeat passes re-run the whole workload without reprinting answers;
	// with -cache-mb they are served from the answer cache (watch the
	// dists column collapse to zero).
	for pass := 1; pass < *repeat; pass++ {
		sp.ResetCompDists()
		idx.ResetStats()
		allIDs := make([][]int, len(gen.Queries))
		allNNs := make([][]core.Neighbor, len(gen.Queries))
		start := time.Now()
		for qi, q := range gen.Queries {
			if *k > 0 {
				allNNs[qi], err = idx.KNNSearch(q, *k)
			} else {
				allIDs[qi], err = idx.RangeSearch(q, *radius)
			}
			if err != nil {
				fail(err)
			}
		}
		elapsed := time.Since(start)
		dists, pa := sp.CompDists(), idx.PageAccesses()
		if *verify { // brute-force scans, after the counters are read
			for qi := range gen.Queries {
				if *k > 0 {
					err = verifyKNN(gen, qi, *k, allNNs[qi])
				} else {
					err = verifyMRQ(gen, qi, *radius, allIDs[qi])
				}
				if err != nil {
					fail(fmt.Errorf("repeat pass %d: %w", pass+1, err))
				}
			}
		}
		fmt.Printf("\npass %d: %d queries in %v (%d dists, %d PA)\n",
			pass+1, len(gen.Queries), elapsed.Round(time.Microsecond), dists, pa)
	}
	printCacheStats(live)
}

// printCacheStats reports the answer cache's counters when -cache-mb
// enabled one (live is nil otherwise).
func printCacheStats(live *epoch.Live) {
	if live == nil {
		return
	}
	st, _ := live.CacheStats()
	fmt.Printf("cache: %d served, %d computed, %.0f%% hit rate, %d KB resident\n",
		st.Hits+st.Collapsed, st.Misses, 100*st.HitRate(), st.Bytes/1024)
}

// printKNN prints one MkNNQ answer line without a trailing newline (the
// caller appends either per-query costs or a newline).
func printKNN(qi, k, maxShow int, nns []core.Neighbor) {
	fmt.Printf("query %d: MkNNQ(k=%d):", qi+1, k)
	for i, nb := range nns {
		if i == maxShow {
			fmt.Printf(" …%d more", len(nns)-i)
			break
		}
		fmt.Printf(" %d@%.3g", nb.ID, nb.Dist)
	}
}

// printMRQ prints one MRQ answer line without a trailing newline.
func printMRQ(qi int, radius float64, maxShow int, ids []int) {
	fmt.Printf("query %d: MRQ(r=%g): %d results:", qi+1, radius, len(ids))
	for i, id := range ids {
		if i == maxShow {
			fmt.Printf(" …%d more", len(ids)-i)
			break
		}
		fmt.Printf(" %d", id)
	}
}

// verifyKNN checks one MkNNQ answer against the brute-force baseline.
func verifyKNN(gen *dataset.Generated, qi, k int, nns []core.Neighbor) error {
	want := core.BruteForceKNN(gen.Dataset, gen.Queries[qi], k)
	if len(want) != len(nns) || (len(want) > 0 && want[len(want)-1].Dist != nns[len(nns)-1].Dist) {
		return fmt.Errorf("query %d: kNN mismatch vs linear scan", qi+1)
	}
	return nil
}

// verifyMRQ checks one MRQ answer against the brute-force baseline.
func verifyMRQ(gen *dataset.Generated, qi int, radius float64, ids []int) error {
	want := core.BruteForceRange(gen.Dataset, gen.Queries[qi], radius)
	if len(want) != len(ids) {
		return fmt.Errorf("query %d: MRQ mismatch vs linear scan (%d vs %d)", qi+1, len(ids), len(want))
	}
	return nil
}

// runBatch answers the whole workload through the concurrent batch engine
// and prints per-query answers plus aggregate batch stats. Repeat passes
// re-run the same batch; with an answer cache they are served before
// dispatch (Stats.CacheHits).
func runBatch(gen *dataset.Generated, idx core.Reader, k int, radius float64, verify bool, maxShow, workers, repeat int) error {
	eng := exec.New(gen.Dataset.Space(), exec.Options{Workers: workers})
	fmt.Printf("batch mode: %d queries across %d workers\n", len(gen.Queries), eng.Workers())
	ctx := context.Background()
	var stats exec.BatchStats
	if k > 0 {
		res, err := eng.BatchKNNSearch(ctx, idx, gen.Queries, k)
		if err != nil {
			return err
		}
		stats = res.Stats
		for qi, nns := range res.Neighbors {
			printKNN(qi, k, maxShow, nns)
			fmt.Println()
			if verify {
				if err := verifyKNN(gen, qi, k, nns); err != nil {
					return err
				}
			}
		}
	} else {
		res, err := eng.BatchRangeSearch(ctx, idx, gen.Queries, radius)
		if err != nil {
			return err
		}
		stats = res.Stats
		for qi, ids := range res.IDs {
			printMRQ(qi, radius, maxShow, ids)
			fmt.Println()
			if verify {
				if err := verifyMRQ(gen, qi, radius, ids); err != nil {
					return err
				}
			}
		}
	}
	if verify {
		fmt.Println("all answers verified against linear scan ✓")
	}
	fmt.Printf("\nbatch: %d queries in %v (%.0f q/s), %.0f dists/query, %.0f PA/query\n",
		stats.Queries, stats.Wall.Round(time.Microsecond), stats.Throughput(),
		stats.PerQueryCompDists(), stats.PerQueryPageAccesses())
	fmt.Printf("latency: p50 %v, p95 %v, p99 %v\n",
		stats.P50.Round(time.Microsecond), stats.P95.Round(time.Microsecond),
		stats.P99.Round(time.Microsecond))

	for pass := 1; pass < repeat; pass++ {
		var st exec.BatchStats
		if k > 0 {
			res, err := eng.BatchKNNSearch(ctx, idx, gen.Queries, k)
			if err != nil {
				return err
			}
			st = res.Stats
		} else {
			res, err := eng.BatchRangeSearch(ctx, idx, gen.Queries, radius)
			if err != nil {
				return err
			}
			st = res.Stats
		}
		fmt.Printf("pass %d: %d queries in %v (%.0f q/s), %d cache hits, %.0f dists/query\n",
			pass+1, st.Queries, st.Wall.Round(time.Microsecond), st.Throughput(),
			st.CacheHits, st.PerQueryCompDists())
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "msearch:", err)
	os.Exit(1)
}
