package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/persist"
)

const (
	setupRepeats = 3
	numSlices    = 6 // the window is cut into this many slices; ops_per_s is the median slice
)

// sample is one operation of the measured loop.
type sample struct {
	end time.Duration // completion, since the loop started
	lat time.Duration
	ok  bool
}

// loopResult is everything the clients recorded.
type loopResult struct {
	samples [][]sample      // per client
	lag     []time.Duration // open loop: how late each op was handed out
	errs    []error         // first error of each client, for the log
}

func clientCount() int { return min(runtime.NumCPU(), 4) }

// runClosed drives the stack's top rung with one goroutine per client,
// each sending its next op when the previous one returned.
func (p *prepared) runClosed(rung string, st *stack, clients int, dur time.Duration) *loopResult {
	lr := &loopResult{samples: make([][]sample, clients), errs: make([]error, clients)}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(st, i, clients)
			outstanding := 0
			if st.seeded != nil {
				outstanding = len(p.seedIDs) / clients
			}
			gen := newOpGen(p.sp, p.seed, i, clients, outstanding)
			for {
				o := gen.next()
				t0 := time.Since(start)
				if t0 >= dur {
					break
				}
				res, err := p.exec(rung, st, c, o)
				t1 := time.Since(start)
				if err != nil && lr.errs[i] == nil {
					lr.errs[i] = err
				}
				lr.samples[i] = append(lr.samples[i], sample{end: t1, lat: t1 - t0, ok: err == nil && p.check(c, o, res)})
			}
			if c.http != nil {
				c.http.CloseIdleConnections()
			}
		}(i)
	}
	wg.Wait()
	return lr
}

// runOpen drives the stack at a fixed arrival rate: a seeded Poisson
// schedule, ops handed to the clients in due order by a dispatcher that
// never waits for them, so a stall is charged to every op that arrived
// during it. An op's latency counts from the moment it was handed out.
// That moment trails the due time by the machine's timer tick (sleeps on
// the reference VM wake on a ~1.1 ms grid, as large as the service time
// being measured), which is the generator's lateness, not the
// program's: it is reported on its own as the send lag.
func (p *prepared) runOpen(rung string, st *stack, clients int, dur time.Duration) *loopResult {
	type item struct {
		o         op
		due, sent time.Duration
	}
	rng := rand.New(rand.NewSource(subSeed(p.seed, "arrivals", 0)))
	gen := newOpGen(p.sp, p.seed, 0, 1, len(p.seedIDs))
	var sched []item
	for due := time.Duration(0); due < dur; {
		sched = append(sched, item{o: gen.next(), due: due})
		due += time.Duration(rng.ExpFloat64() / p.sp.rate * float64(time.Second))
	}
	lr := &loopResult{samples: make([][]sample, clients), errs: make([]error, clients), lag: make([]time.Duration, 0, len(sched))}
	// Sized to the whole schedule: the dispatcher must never block on a
	// busy client, or the arrivals would stop being open-loop.
	queue := make(chan item, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(st, i, clients)
			for it := range queue {
				res, err := p.exec(rung, st, c, it.o)
				t1 := time.Since(start)
				if err != nil && lr.errs[i] == nil {
					lr.errs[i] = err
				}
				lr.samples[i] = append(lr.samples[i], sample{end: t1, lat: t1 - it.sent, ok: err == nil && p.check(c, it.o, res)})
			}
			if c.http != nil {
				c.http.CloseIdleConnections()
			}
		}(i)
	}
	for _, it := range sched {
		if wait := it.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		it.sent = time.Since(start)
		lr.lag = append(lr.lag, it.sent-it.due)
		queue <- it
	}
	close(queue)
	wg.Wait()
	return lr
}

func (p *prepared) runLoop(rung string, st *stack, clients int, dur time.Duration) *loopResult {
	if p.sp.rate > 0 {
		return p.runOpen(rung, st, clients, dur)
	}
	return p.runClosed(rung, st, clients, dur)
}

// summary is the window's end-to-end view.
type summary struct {
	attempted, failed int
	opsPerS           float64
	p50us, p95us      float64
	p99us             float64
	lagP99us          float64
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(q*float64(len(sorted))))]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarize keeps the samples that completed inside [warm, warm+window).
// Throughput is the median over the window's slices of the verified-OK
// count, so a slice a noisy neighbour disturbed does not move it; the
// latency percentiles run over every sample of the window.
func (lr *loopResult) summarize(warm, window time.Duration) summary {
	var s summary
	slice := window / numSlices
	okPerSlice := make([]float64, numSlices)
	var lats []time.Duration
	for _, cs := range lr.samples {
		for _, sm := range cs {
			if sm.end < warm || sm.end >= warm+window {
				continue
			}
			s.attempted++
			if !sm.ok {
				s.failed++
				continue
			}
			okPerSlice[min(numSlices-1, int((sm.end-warm)/slice))]++
			lats = append(lats, sm.lat)
		}
	}
	s.opsPerS = median(okPerSlice) / slice.Seconds()
	slices.Sort(lats)
	s.p50us, s.p95us, s.p99us = micros(percentile(lats, 0.50)), micros(percentile(lats, 0.95)), micros(percentile(lats, 0.99))
	lag := slices.Clone(lr.lag)
	slices.Sort(lag)
	s.lagP99us = micros(percentile(lag, 0.99))
	return s
}

// rssMB reads the resident set from /proc after returning freed memory
// to the OS, so it reflects what the set-up left live.
func rssMB() (float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

// verify compares the live front's answers for every pool query with a
// linear scan over the dataset as it stands, and the filtered kNN answer
// of a sample of them with the filtered scan.
func (p *prepared) verify(st *stack) error {
	var want []answer
	var wantF [][]core.Neighbor
	st.live.View(func(ds *core.Dataset, _ core.Index) {
		flat, dim, _ := ds.FlatVectors()
		want = bruteForce(ds, flat, dim, p.pool, p.radius)
		for i := 0; i < min(filterCheck, len(p.pool)); i++ {
			wantF = append(wantF, bruteForceFiltered(ds, p.pool[i], p.preds[i%len(p.preds)]))
		}
	})
	for i, q := range p.pool {
		nns, err := st.live.KNNSearch(q, knnK)
		if err != nil || !slices.Equal(nns, want[i].nns) {
			return fmt.Errorf("pool query %d: kNN differs from the linear scan (%v)", i, err)
		}
		ids, err := st.live.RangeSearch(q, p.radius)
		if err != nil || !slices.Equal(ids, want[i].ids) {
			return fmt.Errorf("pool query %d: range answer differs from the linear scan (%v)", i, err)
		}
	}
	for i, w := range wantF {
		nns, _, _, err := st.live.KNNSearchFiltered(p.pool[i], knnK, p.preds[i%len(p.preds)])
		if err != nil || !slices.Equal(nns, w) {
			return fmt.Errorf("pool query %d: filtered kNN differs from the filtered scan (%v)", i, err)
		}
	}
	return nil
}

// checkDurable closes the stack's WAL, rebuilds the live front from the
// snapshot and the log alone, and requires the same live count, epoch
// and answers as the in-memory state.
func (p *prepared) checkDurable(st *stack, tag string) error {
	if err := st.wal.Close(); err != nil {
		return err
	}
	st.wal = nil
	live, _, err := persist.OpenLive(p.snapPath())
	if err != nil {
		return err
	}
	wal, recs, torn, err := persist.OpenWAL(filepath.Join(p.dir, tag+".wal"), persist.SyncOff)
	if err != nil {
		return err
	}
	defer wal.Close()
	if torn {
		return fmt.Errorf("WAL has a torn tail after a clean close")
	}
	if _, err := persist.Replay(live, recs); err != nil {
		return err
	}
	count := func(l *epoch.Live) (n int) {
		l.View(func(ds *core.Dataset, _ core.Index) { n = ds.Count() })
		return n
	}
	if a, b := count(st.live), count(live); a != b {
		return fmt.Errorf("reopened state holds %d objects, memory holds %d", b, a)
	}
	if a, b := st.live.Epoch(), live.Epoch(); a != b {
		return fmt.Errorf("reopened state is at epoch %d, memory at %d", b, a)
	}
	for i, q := range p.pool {
		a, errA := st.live.KNNSearch(q, knnK)
		b, errB := live.KNNSearch(q, knnK)
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			return fmt.Errorf("pool query %d: reopened kNN differs from memory", i)
		}
	}
	return nil
}

// runEndToEnd is the untraced run: repeated set-ups, resident memory,
// the pre-check, warm-up and window, then the post and durability checks.
func runEndToEnd(sp *spec, seed int64, window time.Duration, outDir string, logf func(string, ...any)) (*report, error) {
	p, err := prepare(sp, seed, outDir)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	var st *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var parts *setupParts
		if st, parts, err = p.setup(sp.top(), "main"); err != nil {
			return nil, err
		}
		setups = append(setups, parts.totalS)
	}
	defer func() { _ = st.close() }() // a second close after checkDurable is harmless
	rss, err := rssMB()
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: sp.name, Seed: seed}
	if sp.writes() {
		if err := p.verify(st); err != nil {
			return nil, fmt.Errorf("before the window: %w", err)
		}
	}
	warm := window / numSlices
	lr := p.runLoop(sp.top(), st, clientCount(), warm+window)
	for i, err := range lr.errs {
		if err != nil {
			logf("client %d: first error: %v", i, err)
		}
	}
	s := lr.summarize(warm, window)
	if sp.writes() {
		if err := p.verify(st); err != nil {
			return nil, fmt.Errorf("after the window: %w", err)
		}
	}
	if sp.top() == rungLive {
		if err := p.checkDurable(st, "main"); err != nil {
			return nil, fmt.Errorf("durability: %w", err)
		}
	}
	rep.Attempted, rep.Failed = s.attempted, s.failed
	rep.Correct = s.failed == 0
	rep.set("setup_s", median(setups))
	rep.set("ops_per_s", s.opsPerS)
	rep.set("lat_p50_us", s.p50us)
	rep.set("rss_mb", rss)
	logf("%s seed %d: attempted %d, ok %d, failed %d, latency samples %d, clients %d",
		sp.name, seed, s.attempted, s.attempted-s.failed, s.failed, s.attempted-s.failed, clientCount())
	logf("lat_p95_us = %.1f us, lat_p99_us = %.1f us (reported, not gated: their run-to-run spread exceeds any bound the contract allows, see README)", s.p95us, s.p99us)
	logf("bench.dataset_gen_s = %.4f s (prepare, outside set-up)", p.prepS)
	if sp.rate > 0 {
		logf("bench.send_lag_p99_us = %.1f us (open loop at %g req/s)", s.lagP99us, sp.rate)
	}
	return rep, nil
}
