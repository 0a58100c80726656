// Command mserve is the long-lived query service: it builds a chosen
// pivot-based metric index over a dataset file (written by datagen),
// optionally sharded, and serves it over HTTP/JSON with
// epoch-synchronized updates, admission control, per-client statistics,
// and graceful index swap (POST /v1/swap rebuilds in the background with
// fresh pivots and cuts over atomically under load).
//
// Usage:
//
//	datagen -kind Words -n 20000 -out words.midx
//	mserve -data words.midx -index SPB-tree -addr :8080
//	mserve -data words.midx -index LAESA -shards 4 -workers -1
//	mserve -data words.midx -index MVPT -data-dir ./state   # durable: snapshot + WAL
//
// -index takes any of the 18 kinds of the family registry (internal/bench):
// AESA, LAESA, EPT, EPT*, DiskEPT*, CPT, BKT, FQT, FQA, MVPT, VPT,
// PM-tree, Omni-seq, OmniB+-tree, OmniR-tree, M-index, M-index* and
// SPB-tree. BKT, FQT and FQA need a discrete metric (Words).
//
// With -data-dir the server is durable: the built index is snapshotted
// to <dir>/snapshot.mxs, every committed write is appended to
// <dir>/wal.mxl before it is acknowledged, and a restart restores the
// exact pre-crash state — snapshot load, WAL replay at exact epochs, no
// rebuild (formats: docs/PERSISTENCE.md).
//
// Endpoints: POST /v1/range, /v1/knn, /v1/batch, /v1/insert,
// /v1/delete, /v1/swap; GET /v1/stats, /healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metricindex/internal/bench"
	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/persist"
	"metricindex/internal/server"
)

// config is what boot needs to assemble the serving stack: one field per
// flag except -addr, which only main uses.
type config struct {
	data, index             string
	pivots, shards, workers int
	inflight, queue         int
	cacheMB                 int
	dataDir, fsync          string
	metrics, pprof          bool
	slowQueryMS             int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.data, "data", "", "dataset file from datagen (required)")
	flag.StringVar(&cfg.index, "index", "SPB-tree", "index: "+bench.Names())
	flag.IntVar(&cfg.pivots, "pivots", 5, "number of pivots |P|")
	flag.IntVar(&cfg.shards, "shards", 0, "partition the dataset across this many sub-indexes (0/1 = unsharded)")
	flag.IntVar(&cfg.workers, "workers", -1, "batch engine and build parallelism (-1 = GOMAXPROCS)")
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.inflight, "max-inflight", 0, "admission: max concurrently executing requests (0 = 4×GOMAXPROCS)")
	flag.IntVar(&cfg.queue, "max-queue", 0, "admission: max requests waiting for a slot (0 = 4×max-inflight)")
	flag.IntVar(&cfg.cacheMB, "cache-mb", 64, "epoch-keyed answer cache budget in MB; hot queries are served memoized until the next committed write (0 disables)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durability directory: snapshot.mxs + wal.mxl live here; boot restores from them, every committed write is logged, every swap re-snapshots (empty = volatile)")
	flag.StringVar(&cfg.fsync, "fsync", "interval", "WAL fsync policy: always (per append), interval (background 200ms), off")
	flag.BoolVar(&cfg.metrics, "metrics", true, "expose Prometheus text metrics at GET /metrics")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under GET /debug/pprof/")
	flag.IntVar(&cfg.slowQueryMS, "slow-query-ms", 0, "log any request slower than this many milliseconds with its compdists and page accesses (0 disables)")
	flag.Parse()
	if cfg.data == "" {
		fmt.Fprintln(os.Stderr, "missing -data; generate one with datagen")
		os.Exit(2)
	}

	srv, live, cleanup, err := boot(cfg)
	if err != nil {
		fail(err)
	}
	defer cleanup()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("serving %s on %s\n", live.Name(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil {
			fail(err)
		}
	case <-ctx.Done():
		fmt.Println("\nshutting down…")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fail(err)
		}
	}
}

// boot assembles everything main serves: load the dataset, restore the
// live index from cfg.dataDir or build it fresh (and make it durable),
// and wrap it in a server. cleanup closes the write-ahead log; it is
// non-nil only with a nil error.
func boot(cfg config) (srv *server.Server, live *epoch.Live, cleanup func(), err error) {
	gen, err := dataset.Load(cfg.data)
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("loaded %s: %d objects (%s), %d queries\n",
		cfg.data, gen.Dataset.Count(), gen.Dataset.Space().Metric().Name(), len(gen.Queries))

	builder, err := bench.BuilderByName(cfg.index)
	if err != nil {
		return nil, nil, nil, err
	}
	env, err := bench.EnvFor(gen, bench.Config{
		N: gen.Dataset.Count(), Queries: len(gen.Queries),
		Pivots: cfg.pivots, Shards: cfg.shards, Workers: cfg.workers,
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// One registry for the whole process: the server registers every
	// layer's instruments on it, and durable adds the persistence push
	// handles (WAL append/fsync, snapshot timers) as they come online.
	reg := obs.NewRegistry()

	var dur *durable
	if cfg.dataDir != "" {
		if env.Cfg.Shards > 1 {
			return nil, nil, nil, fmt.Errorf("-data-dir does not support -shards > 1 (sharded fronts have no snapshot format yet)")
		}
		var mode persist.SyncMode
		if mode, err = persist.ParseSyncMode(cfg.fsync); err != nil {
			return nil, nil, nil, err
		}
		if err = os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		dur = newDurable(cfg.dataDir, mode, reg)
		// An error below may leave a WAL open; close it on the way out.
		defer func() {
			if err != nil {
				dur.close()
			}
		}()
		if live, err = dur.restore(gen.Dataset.Space().Metric().Name()); err != nil {
			return nil, nil, nil, err
		}
	}
	if live == nil {
		built, cost, err := bench.MeasureBuild(env, builder)
		if err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("built %s in %v: %d compdists, %d KB memory, %d KB disk\n",
			built.Index.Name(), cost.Time.Round(time.Millisecond),
			cost.CompDists, cost.MemBytes/1024, cost.DiskBytes/1024)
		live = epoch.NewLive(gen.Dataset, built.Index)
		if dur != nil {
			if err := dur.attach(live); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	// The swap rebuild re-runs the same build (re-sharded if sharded)
	// over the drifted live dataset, with fresh HFI pivots selected on it.
	rebuild := func(ds *core.Dataset) (core.Index, error) {
		renv, err := env.WithDataset(ds)
		if err != nil {
			return nil, err
		}
		rebuilt, err := bench.Build(renv, builder)
		if err != nil {
			return nil, err
		}
		return rebuilt.Index, nil
	}
	sopts := server.Options{
		MaxInFlight: cfg.inflight, MaxQueue: cfg.queue,
		Workers: env.Cfg.Workers, Builder: rebuild,
		Obs:                reg,
		DisableMetrics:     !cfg.metrics,
		PProf:              cfg.pprof,
		SlowQueryThreshold: time.Duration(cfg.slowQueryMS) * time.Millisecond,
	}
	cleanup = func() {}
	if dur != nil {
		// Snapshot-on-swap: each graceful rebuild re-snapshots the fresh
		// structure and truncates the now-redundant WAL prefix.
		sopts.AfterSwap = dur.afterSwap(live)
		sopts.PersistStats = dur.stats
		cleanup = dur.close
	}
	if cfg.cacheMB > 0 {
		sopts.Cache = &cache.Options{MaxBytes: int64(cfg.cacheMB) << 20}
		fmt.Printf("answer cache: %d MB, epoch-keyed\n", cfg.cacheMB)
	}
	if srv, err = server.New(live, sopts); err != nil {
		return nil, nil, nil, err
	}
	return srv, live, cleanup, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mserve:", err)
	os.Exit(1)
}
