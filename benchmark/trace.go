package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"metricindex/internal/bench"
	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/exec"
	"metricindex/internal/persist"
	"metricindex/internal/plan"
)

const (
	traceOps    = 2000 // ops of the seed's list the ladder executes at every rung
	sideQueries = 256  // pool queries of the cache and exec side passes
	familyN     = 20000
)

// span is one execution of one op at one rung. Spans of one op share its
// id; Parent names the rung above, whose span the same op also has.
type span struct {
	Op      int    `json:"op"`
	Rung    string `json:"rung"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (tr *tracer) add(opID int, rung, parent string, start, end time.Time) {
	tr.spans = append(tr.spans, span{Op: opID, Rung: rung, Parent: parent,
		StartNS: start.Sub(tr.origin).Nanoseconds(), EndNS: end.Sub(tr.origin).Nanoseconds()})
}

type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Rungs    []string `json:"rungs"`
	Spans    []span   `json:"spans"`
}

func (tr *tracer) write(sp *spec, seed int64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: sp.name, Seed: seed, Rungs: sp.rungs, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+sp.name+".json"), data, 0o644)
}

// pass is one rung's run over the traced op list, with the counters read
// at each op's boundaries.
type pass struct {
	dur     []time.Duration
	cd      []int64 // compdists on the stack's space
	reads   []int64 // physical page reads on the stack's pager
	hit     []bool  // answered by the answer cache
	bytes   int64   // response bodies
	mallocs uint64
	failed  int
}

func cacheServed(l *epoch.Live) int64 {
	if l == nil {
		return 0
	}
	st, _ := l.CacheStats()
	return st.Hits + st.Collapsed
}

// runPass executes the op list once, sequentially, against one rung's
// stack. Stacks of a workload start equal and see the same list, so op i
// means the same thing on every rung.
func (p *prepared) runPass(rung, parent string, st *stack, ops []op, tr *tracer) *pass {
	ps := &pass{dur: make([]time.Duration, len(ops)), cd: make([]int64, len(ops)),
		reads: make([]int64, len(ops)), hit: make([]bool, len(ops))}
	c := newClient(st, 0, 1)
	space := st.ds.Space()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, o := range ops {
		cd0, h0 := space.CompDists(), cacheServed(st.live)
		var r0 int64
		if st.pager != nil {
			r0 = st.pager.Reads()
		}
		t0 := time.Now()
		res, err := p.exec(rung, st, c, o)
		t1 := time.Now()
		tr.add(i, rung, parent, t0, t1)
		ps.dur[i], ps.cd[i] = t1.Sub(t0), space.CompDists()-cd0
		ps.hit[i] = cacheServed(st.live) > h0
		if st.pager != nil {
			ps.reads[i] = st.pager.Reads() - r0
		}
		ps.bytes += int64(res.bytes)
		if err != nil || !p.check(c, o, res) {
			ps.failed++
		}
	}
	runtime.ReadMemStats(&m1)
	ps.mallocs = m1.Mallocs - m0.Mallocs
	if c.http != nil {
		c.http.CloseIdleConnections()
	}
	return ps
}

// kernelPass replays each op's exact number of distance computations
// through the flat kernel, one dataset row per call, the rows spaced
// evenly over the table the way the survivors of a pivot sweep are: the
// time the distance function and the fetch of its operand account for,
// with none of the index around them.
func (p *prepared) kernelPass(ops []op, cd []int64, tr *tracer) *pass {
	ps := &pass{dur: make([]time.Duration, len(ops)), cd: cd}
	bm := p.gen.Dataset.Space().Metric().(core.BatchMetric)
	rows, dim := len(p.flat)/p.dim, p.dim
	var out [1]float64
	for i, o := range ops {
		q := p.pool[0].(core.Vector)
		switch o.kind {
		case opKNN, opRange:
			q = p.pool[o.q].(core.Vector)
		case opBatch:
			q = p.pool[o.batch[0]].(core.Vector)
		case opInsert:
			q = p.inserts[o.obj].(core.Vector)
		}
		n := int(cd[i])
		stride := max(1, rows/max(1, n))
		t0 := time.Now()
		for j := 0; j < n; j++ {
			r := j * stride % rows
			bm.DistanceFlat(q, p.flat[r*dim:(r+1)*dim], dim, out[:])
		}
		t1 := time.Now()
		tr.add(i, rungKernel, rungIndex, t0, t1)
		ps.dur[i] = t1.Sub(t0)
	}
	return ps
}

// meanUS averages the durations of the ops keep selects, in µs; 0 when
// it selects none.
func meanUS(dur []time.Duration, keep func(i int) bool) float64 {
	var sum time.Duration
	n := 0
	for i, d := range dur {
		if keep(i) {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return micros(sum) / float64(n)
}

func sumDur(dur []time.Duration) (s time.Duration) {
	for _, d := range dur {
		s += d
	}
	return s
}

func sumInt(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeQueries runs fn over the side-pass queries and returns the mean
// time per query in µs.
func (p *prepared) timeQueries(fn func(q core.Object) error) (float64, error) {
	qs := p.pool[:min(sideQueries, len(p.pool))]
	t0 := time.Now()
	for _, q := range qs {
		if err := fn(q); err != nil {
			return 0, err
		}
	}
	return micros(time.Since(t0)) / float64(len(qs)), nil
}

// cachePass prices the answer cache on a live front: the same queries
// with the cache detached, then cold (every lookup misses and fills),
// then again (every lookup hits).
func (p *prepared) cachePass(l *epoch.Live, rep *report) error {
	knn := func(q core.Object) error { _, _, err := l.KNNSearchAt(q, knnK); return err }
	l.SetCache(nil)
	if _, err := p.timeQueries(knn); err != nil { // warm the rows the queries touch
		return err
	}
	bare, err := p.timeQueries(knn)
	if err != nil {
		return err
	}
	l.SetCache(newCache())
	miss, err := p.timeQueries(knn)
	if err != nil {
		return err
	}
	hit, err := p.timeQueries(knn)
	if err != nil {
		return err
	}
	rep.set("cache.hit_us", hit)
	rep.set("cache.miss_overhead_us", miss-bare)
	return nil
}

// execPass prices the batch engine: the side-pass queries as one batch
// on one worker and on every core, against the plain loop.
func (p *prepared) execPass(st *stack, rep *report) error {
	qs := p.pool[:min(sideQueries, len(p.pool))]
	batch := func(workers int) func() error {
		eng := exec.New(st.ds.Space(), exec.Options{Workers: workers})
		return func() error {
			_, err := eng.BatchKNNSearch(context.Background(), st.idx, qs, knnK)
			return err
		}
	}
	loop := func() error {
		for _, q := range qs {
			if _, err := st.idx.KNNSearch(q, knnK); err != nil {
				return err
			}
		}
		return nil
	}
	var med [3]float64
	for v, fn := range []func() error{loop, batch(1), batch(runtime.NumCPU())} {
		var ts []float64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return err
			}
			ts = append(ts, micros(time.Since(t0)))
		}
		sort.Float64s(ts)
		med[v] = ts[1]
	}
	rep.set("exec.overhead_us_per_query", (med[1]-med[0])/float64(len(qs)))
	rep.set("exec.speedup", ratio(med[1], med[2]))
	return nil
}

// walAppendPass times appends of insert-sized records to a scratch log
// under the workloads' fsync policy.
func (p *prepared) walAppendPass(rep *report) error {
	wal, _, _, err := persist.OpenWAL(filepath.Join(p.dir, "scratch.wal"), persist.SyncInterval)
	if err != nil {
		return err
	}
	o := op{cat: 3, stock: 7, price: 19.99}
	t0 := time.Now()
	for i := 0; i < traceOps; i++ {
		if err := wal.Append(epoch.OpAdd, uint64(i+1), i, p.inserts[i%len(p.inserts)], o.attrs()); err != nil {
			wal.Close()
			return err
		}
	}
	rep.set("persist.wal_append_us", micros(time.Since(t0))/traceOps)
	return wal.Close()
}

// spanCost is what recording one span costs, to subtract from a rung.
func spanCost() float64 {
	const n = 100000
	tr := &tracer{origin: time.Now(), spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		tr.add(i, rungIndex, "", t, time.Now())
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

var families = []struct{ metric, builder string }{
	{"laesa", "LAESA"}, {"ept", "EPT"}, {"eptstar", "EPT*"}, {"cpt", "CPT"}, {"mvpt", "MVPT"},
	{"pmtree", "PM-tree"}, {"omnirtree", "OmniR-tree"}, {"mindex", "M-index"},
	{"mindexstar", "M-index*"}, {"spbtree", "SPB-tree"},
}

var diskFamilies = []string{"cpt", "pmtree", "omnirtree", "mindex", "mindexstar", "spbtree"}

// familySweep records exact per-kNN compdists and page accesses of the
// index families no workload times, all over one fixed dataset, pivot
// set and query list, sequentially — the counts depend on the code alone
// and repeat bit for bit.
func familySweep(n int, rep *report, logf func(string, ...any)) error {
	env, err := bench.NewEnv(dataset.LA, bench.Config{N: n, Queries: 50, Pivots: numPivots, Seed: datasetSeed})
	if err != nil {
		return err
	}
	cd, pa := map[string]float64{}, map[string]float64{}
	for _, f := range families {
		b, err := bench.BuilderByName(f.builder)
		if err != nil {
			return err
		}
		built, _, err := bench.MeasureBuild(env, b)
		if err != nil {
			return fmt.Errorf("family %s: %w", f.metric, err)
		}
		cost, err := bench.MeasureKNN(env, built, knnK)
		if err != nil {
			return fmt.Errorf("family %s: %w", f.metric, err)
		}
		cd[f.metric], pa[f.metric] = cost.CompDists, cost.PA
		rep.set("family."+f.metric+".compdists_per_knn", cost.CompDists)
		rep.set("family."+f.metric+".pa_per_knn", cost.PA)
	}
	// The survey's first expectation — a pivot table needs no more
	// compdists than a pivot tree over the same pivots — does not hold
	// for MVPT on this dataset (see README), so it is printed, not
	// asserted.
	logf("ordering: table <= tree compdists at |P|=%d: laesa %.2f vs mvpt %.2f -> %v",
		numPivots, cd["laesa"], cd["mvpt"], cd["laesa"] <= cd["mvpt"])
	for _, f := range diskFamilies {
		// Asserted at the size it was established at: a smaller table
		// fits the 128 KB page cache whole and orders nothing.
		if n == familyN && pa[f] < pa["spbtree"] {
			return fmt.Errorf("ordering broken: %s reads %.2f pages per kNN, fewer than the SPB-tree's %.2f", f, pa[f], pa["spbtree"])
		}
	}
	logf("ordering: SPB-tree has the lowest PA of the disk indexes: spbtree %.2f vs cpt %.2f", pa["spbtree"], pa["cpt"])
	return nil
}

// runTraced is the traced run: one set-up per rung, the op list through
// every rung, the side passes, a closed-loop burst for the numbers that
// need concurrency, and the family sweep.
func runTraced(sp *spec, seed int64, window time.Duration, nOps, famN int, outDir string, logf func(string, ...any)) (*report, error) {
	p, err := prepare(sp, seed, outDir)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	rep := &report{Workload: sp.name, Seed: seed, Trace: true}
	for _, m := range perLayer {
		rep.set(m.name, 0) // a layer the workload bypasses reports 0
	}
	rungs := sp.rungs[:len(sp.rungs)-1] // all but the kernel rung run on a stack
	stacks := map[string]*stack{}
	defer func() {
		for _, st := range stacks {
			_ = st.close() // the run's outcome is already decided
		}
	}()
	var parts *setupParts
	for i, rung := range rungs {
		st, pt, err := p.setup(rung, fmt.Sprintf("rung%d", i))
		if err != nil {
			return nil, err
		}
		if stacks[rung] = st; i == 0 {
			parts = pt
		}
	}
	top, bottom := stacks[sp.top()], stacks[rungIndex]

	ops := newOpGen(sp, seed, 0, 1, len(p.seedIDs)).take(nOps)
	tr := &tracer{origin: time.Now(), spans: make([]span, 0, len(ops)*len(sp.rungs))}
	passes := map[string]*pass{}
	for i, rung := range rungs {
		parent := ""
		if i > 0 {
			parent = rungs[i-1]
		}
		passes[rung] = p.runPass(rung, parent, stacks[rung], ops, tr)
	}
	idx := passes[rungIndex]
	kern := p.kernelPass(ops, idx.cd, tr)
	passes[rungKernel] = kern
	if err := tr.write(sp, seed, outDir); err != nil {
		return nil, err
	}

	// Selections over the op list.
	kind := func(k opKind, filtered bool) func(int) bool {
		return func(i int) bool { return ops[i].kind == k && (ops[i].filter >= 0) == filtered }
	}
	anyOp := func(int) bool { return true }
	// A batch runs on every core at the server rungs and as a plain loop
	// below them, so self times that compare rungs use single searches.
	single := func(i int) bool { return ops[i].kind == opKNN || ops[i].kind == opRange }
	n := float64(len(ops))
	totalCD := float64(sumInt(idx.cd))

	rep.set("core.compdists_per_op", totalCD/n)
	rep.set("core.kernel_ns_per_dist", ratio(float64(sumDur(kern.dur).Nanoseconds()), totalCD))
	kernelShare := ratio(float64(sumDur(kern.dur)), float64(sumDur(idx.dur)))
	rep.set("core.kernel_share", kernelShare)
	rep.set("pivot.select_s", parts.pivotS)
	rep.set("pivot.compdists", float64(parts.pivotCD))
	prefix := "table."
	if sp.index == "spb" {
		prefix = "spb."
		rep.set("spb.build_s", parts.buildS)
		rep.set("store.page_reads_per_op", float64(sumInt(idx.reads))/n)
		rep.set("store.page_cache_hit_ratio", ratio(float64(bottom.pager.CacheHits()), float64(bottom.pager.CacheHits()+bottom.pager.Reads())))
		rep.set("store.build_page_writes", float64(parts.buildWrites))
		rep.set("store.disk_mb", float64(bottom.idx.DiskBytes())/(1<<20))
	} else {
		rep.set("table.build_s", parts.buildS)
		rep.set("table.build_compdists", float64(parts.buildCD))
		rep.set("table.insert_us", meanUS(idx.dur, kind(opInsert, false)))
		rep.set("table.delete_us", meanUS(idx.dur, kind(opDelete, false)))
		rep.set("table.mem_mb", float64(bottom.idx.MemBytes())/(1<<20))
	}
	isKNN := func(i int) bool { return ops[i].kind == opKNN }
	isRange := func(i int) bool { return ops[i].kind == opRange }
	rep.set(prefix+"knn_us", meanUS(idx.dur, isKNN))
	rep.set(prefix+"range_us", meanUS(idx.dur, isRange))
	rep.set(prefix+"self_share", 1-kernelShare)
	rep.set(prefix+"allocs_per_op", float64(idx.mallocs)/n)

	failed := idx.failed
	if live := passes[rungLive]; live != nil {
		failed += live.failed
		isWrite := func(i int) bool { return ops[i].kind.write() }
		plainRead := func(i int) bool { return single(i) && ops[i].filter < 0 && !live.hit[i] }
		rep.set("epoch.read_self_us", meanUS(live.dur, plainRead)-meanUS(idx.dur, plainRead))
		rep.set("epoch.write_us", meanUS(live.dur, isWrite))
		fknn := meanUS(live.dur, kind(opKNN, true))
		rep.set("plan.filtered_knn_us", fknn)
		rep.set("plan.filter_cost_ratio", ratio(fknn, meanUS(live.dur, func(i int) bool { return kind(opKNN, false)(i) && !live.hit[i] })))
		var fcd, fn float64
		for i, o := range ops {
			if o.filter >= 0 {
				fcd, fn = fcd+float64(live.cd[i]), fn+1
			}
		}
		rep.set("plan.compdists_per_filtered_op", ratio(fcd, fn))
		t0 := time.Now()
		for i := 0; i < traceOps; i++ {
			if _, err := plan.Parse(filterBattery[i%len(filterBattery)]); err != nil {
				return nil, err
			}
		}
		rep.set("plan.parse_us", micros(time.Since(t0))/traceOps)
		ws := stacks[rungLive].wal.Stats()
		rep.set("persist.wal_bytes_per_write", ratio(float64(ws.Bytes), float64(ws.Records)))
		if err := p.walAppendPass(rep); err != nil {
			return nil, err
		}
		cached := stacks[rungLive] // the live front that carries the cache
		if h := stacks[rungHandler]; h != nil {
			cached = h
		}
		if err := p.cachePass(cached.live, rep); err != nil {
			return nil, err
		}
		rep.set("persist.restore_s", parts.restoreS)
		rep.set("persist.wal_replay_s", parts.walReplayS)
		saveS := parts.snapSaveS
		if sp.restore {
			saveS = p.snapSaveS
		}
		rep.set("persist.snapshot_save_s", saveS)
		rep.set("persist.snapshot_mb", float64(parts.snapBytes)/(1<<20))
		rep.set("persist.bytes_per_user_byte", ratio(float64(parts.snapBytes), float64(p.userBytes)))
	}
	if h := passes[rungHandler]; h != nil {
		lb, live := passes[rungLoopback], passes[rungLive]
		failed += h.failed + lb.failed
		miss := func(i int) bool { return single(i) && !h.hit[i] && !lb.hit[i] }
		rep.set("server.handler_self_us", meanUS(h.dur, miss)-meanUS(live.dur, miss))
		rep.set("server.loopback_self_us", meanUS(lb.dur, anyOp)-meanUS(h.dur, anyOp))
		rep.set("server.knn_us", meanUS(lb.dur, kind(opKNN, false)))
		rep.set("server.range_us", meanUS(lb.dur, kind(opRange, false)))
		rep.set("server.knn_filtered_us", meanUS(lb.dur, kind(opKNN, true)))
		rep.set("server.batch_us", meanUS(lb.dur, kind(opBatch, false)))
		rep.set("server.insert_us", meanUS(lb.dur, kind(opInsert, false)))
		rep.set("server.resp_bytes_per_op", float64(h.bytes)/n)
		rep.set("server.allocs_per_op", float64(h.mallocs)/n)
	}
	if sp.execPass {
		if err := p.execPass(bottom, rep); err != nil {
			return nil, err
		}
	}

	// The burst: full client count, closed loop, for what only exists
	// under concurrency.
	obs0 := top.reg.Snapshot()
	var cs0 cache.Stats
	if top.live != nil {
		cs0, _ = top.live.CacheStats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	burst := window / 4
	lr := p.runClosed(sp.top(), top, clientCount(), burst)
	runtime.ReadMemStats(&m1)
	bs := lr.summarize(0, burst)
	failed += bs.failed
	rep.set("bench.lat_p95_us", bs.p95us)
	rep.set("bench.lat_p99_us", bs.p99us)
	obs1 := top.reg.Snapshot()
	delta := func(name string) float64 { return obs1[name] - obs0[name] }
	secs := burst.Seconds()
	rep.set("runtime.alloc_mb_per_s", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/secs)
	rep.set("runtime.gc_cycles_per_s", float64(m1.NumGC-m0.NumGC)/secs)
	rep.set("runtime.gc_pause_ms", ratio(float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, float64(m1.NumGC-m0.NumGC)))
	if top.live != nil {
		cs1, _ := top.live.CacheStats()
		served, misses := float64(cs1.Hits+cs1.Collapsed-cs0.Hits-cs0.Collapsed), float64(cs1.Misses-cs0.Misses)
		rep.set("cache.hit_ratio", ratio(served, served+misses))
		rep.set("cache.evictions", float64(cs1.Evictions-cs0.Evictions))
		rep.set("epoch.write_wait_us", 1e6*ratio(delta("mx_epoch_write_wait_seconds_sum"), delta("mx_epoch_write_wait_seconds_count")))
		pre, probe, post := delta(`mx_plan_strategy_total{strategy="pre"}`), delta(`mx_plan_strategy_total{strategy="probe"}`), delta(`mx_plan_strategy_total{strategy="post"}`)
		rep.set("plan.pre_ratio", ratio(pre, pre+probe+post))
		rep.set("plan.probe_ratio", ratio(probe, pre+probe+post))
		rep.set("plan.post_ratio", ratio(post, pre+probe+post))
	}
	if top.srv != nil {
		rep.set("server.capacity_ops_per_s", bs.opsPerS)
		var reqs, sheds float64
		for name := range obs1 {
			switch {
			case strings.HasPrefix(name, "mx_server_requests_total"):
				reqs += delta(name)
			case strings.HasPrefix(name, "mx_server_sheds_total"):
				sheds += delta(name)
			}
		}
		rep.set("server.shed_ratio", ratio(sheds, reqs+sheds))
		open := p.runOpen(sp.top(), top, clientCount(), window/numSlices).summarize(0, window/numSlices)
		failed += open.failed
		rep.set("bench.send_lag_p99_us", open.lagP99us)
	}
	rep.set("bench.span_cost_ns", spanCost())
	rep.set("bench.dataset_gen_s", p.prepS)
	if err := familySweep(famN, rep, logf); err != nil {
		return nil, err
	}

	attempted := len(ops)*len(rungs) + bs.attempted
	rep.Attempted, rep.Failed, rep.Correct = attempted, failed, failed == 0
	rep.set("bench.fail_ratio", float64(failed)/float64(attempted))
	for _, rung := range sp.rungs {
		logf("rung %-15s mean %9.1f us/op", rung, meanUS(passes[rung].dur, anyOp))
	}
	return rep, nil
}
