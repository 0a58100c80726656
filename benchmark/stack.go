package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/server"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// stack is the program under test assembled down from one rung: a
// dataset and index, and above them — as far as the rung reaches — the
// live front (with WAL, and the answer cache on the serving rungs), the
// HTTP server, and its loopback listener. Every rung of a writing
// workload gets a stack of its own, so each op is applied exactly once
// per stack and all stacks stay in the same state.
type stack struct {
	ds     *core.Dataset
	idx    core.Index
	pager  *store.Pager
	live   *epoch.Live
	wal    *persist.WAL
	reg    *obs.Registry
	srv    *server.Server
	url    string
	served chan error
	// seeded holds the ids the journaled writes left live; the clients
	// of a restored stack share it as their first ids to delete.
	seeded *idQueue
}

func (st *stack) close() error {
	var err error
	if st.url != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = st.srv.Shutdown(ctx)
		cancel()
		if serr := <-st.served; err == nil {
			err = serr
		}
	}
	if st.wal != nil {
		if werr := st.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// setupParts are the timed pieces of one set-up and the counters read at
// their boundaries; the traced run reports them per layer.
type setupParts struct {
	totalS               float64
	pivotS, buildS       float64
	pivotCD, buildCD     int64
	buildWrites          int64
	restoreS, walReplayS float64
	snapSaveS            float64
	snapBytes            int64
}

// build selects pivots and constructs the workload's index over ds.
func (p *prepared) build(ds *core.Dataset, parts *setupParts) (core.Index, *store.Pager, error) {
	space := ds.Space()
	c0, t0 := space.CompDists(), time.Now()
	pv, err := pivot.HFI(ds, numPivots, pivot.Options{Seed: datasetSeed + 1})
	if err != nil {
		return nil, nil, err
	}
	c1, t1 := space.CompDists(), time.Now()
	var idx core.Index
	var pager *store.Pager
	switch p.sp.index {
	case "laesa":
		idx, err = table.NewLAESA(ds, pv)
	case "spb":
		pager = store.NewPager(store.DefaultPageSize)
		idx, err = spb.New(ds, pager, pv, spb.Options{MaxDistance: p.gen.MaxDistance})
		if err == nil {
			parts.buildWrites = pager.Writes()
			// The paper's 128 KB LRU page cache, enabled for queries
			// once the build's own page traffic is done.
			pager.SetCacheBytes(store.DefaultCacheBytes)
		}
	default:
		err = fmt.Errorf("unknown index %q", p.sp.index)
	}
	if err != nil {
		return nil, nil, err
	}
	parts.pivotS, parts.pivotCD = t1.Sub(t0).Seconds(), c1-c0
	parts.buildS, parts.buildCD = time.Since(t1).Seconds(), space.CompDists()-c1
	return idx, pager, nil
}

func cloneDataset(ds *core.Dataset) *core.Dataset {
	c := core.NewDataset(core.NewSpace(ds.Space().Metric()), slices.Clone(ds.Objects()))
	c.CopyAttrsFrom(ds)
	return c
}

func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// walObs registers the WAL push instruments under the names mserve
// gives them.
func walObs(reg *obs.Registry) *persist.WALObs {
	return &persist.WALObs{
		Appends:      reg.Counter("mx_persist_wal_appends_total", "Write-ahead log records appended."),
		AppendBytes:  reg.Counter("mx_persist_wal_append_bytes_total", "Bytes of WAL frames appended."),
		FsyncSeconds: reg.Histogram("mx_persist_wal_fsync_seconds", "Duration of WAL fsync calls.", obs.DefLatencyBuckets),
	}
}

// liveObs registers the instruments a Live updates on its write and
// plan paths, for stacks that have no server to do it.
func liveObs(reg *obs.Registry) *epoch.Obs {
	strategy := func(st plan.Strategy) *obs.Counter {
		return reg.Counter("mx_plan_strategy_total", "Executed filtered-query plans by chosen strategy.",
			obs.Label{Key: "strategy", Value: st.String()})
	}
	return &epoch.Obs{
		Swaps:       reg.Counter("mx_epoch_swaps_total", "Committed index swaps."),
		SwapSeconds: reg.Histogram("mx_epoch_swap_seconds", "Duration of successful swaps.", obs.DefLatencyBuckets),
		WriteWait:   reg.Histogram("mx_epoch_write_wait_seconds", "Write-section wait for the epoch write lock.", obs.DefLatencyBuckets),
		PlanPre:     strategy(plan.StrategyPre),
		PlanProbe:   strategy(plan.StrategyProbe),
		PlanPost:    strategy(plan.StrategyPost),
	}
}

// setup assembles the stack for one rung and verifies its first answer.
// The clock covers what a user waits for — pivot selection and build, or
// snapshot restore and WAL replay, plus the wiring above — and excludes
// staging the files and cloning the dataset, which only exist because
// the benchmark sets up more than once.
func (p *prepared) setup(rung, tag string) (*stack, *setupParts, error) {
	sp, parts, st := p.sp, &setupParts{}, &stack{reg: obs.NewRegistry()}
	walPath := filepath.Join(p.dir, tag+".wal")
	ds := p.gen.Dataset
	switch {
	case sp.restore:
		if err := copyFile(walPath, filepath.Join(p.dir, "preload.wal")); err != nil {
			return nil, nil, err
		}
	case sp.writes():
		ds = cloneDataset(ds)
		if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
	}

	start := time.Now()
	if sp.restore {
		live, snap, err := persist.OpenLive(p.snapPath())
		if err != nil {
			return nil, nil, err
		}
		parts.restoreS = time.Since(start).Seconds()
		t := time.Now()
		wal, recs, _, err := persist.OpenWAL(walPath, persist.SyncInterval)
		if err != nil {
			return nil, nil, err
		}
		if _, err := persist.Replay(live, recs); err != nil {
			return nil, nil, err
		}
		parts.walReplayS = time.Since(t).Seconds()
		st.ds, st.idx, st.live, st.wal = snap.Dataset, snap.Index, live, wal
		st.seeded = &idQueue{ids: slices.Clone(p.seedIDs)}
	} else {
		idx, pager, err := p.build(ds, parts)
		if err != nil {
			return nil, nil, err
		}
		st.ds, st.idx, st.pager = ds, idx, pager
	}
	if rung != rungIndex && !sp.restore {
		st.live = epoch.NewLive(st.ds, st.idx)
		t := time.Now()
		if err := persist.SaveLive(p.snapPath(), st.live); err != nil {
			return nil, nil, err
		}
		parts.snapSaveS = time.Since(t).Seconds()
		wal, _, _, err := persist.OpenWAL(walPath, persist.SyncInterval)
		if err != nil {
			return nil, nil, err
		}
		st.wal = wal
	}
	if rung == rungIndex && st.wal != nil {
		// The index rung runs below the live front: keep the restored
		// structure, drop the front and its log.
		if err := st.wal.Close(); err != nil {
			return nil, nil, err
		}
		st.live, st.wal = nil, nil
	}
	if st.live != nil {
		st.wal.SetObs(walObs(st.reg))
		st.live.SetJournal(st.wal)
		if rung == rungLive {
			// No server above to register the live front's instruments.
			st.live.SetObs(liveObs(st.reg))
			if sp.top() == rungLive {
				// A library caller's live front carries the answer
				// cache; below a server the cache belongs to the
				// server's rungs.
				st.live.SetCache(newCache())
			}
		}
	}
	if rung == rungHandler || rung == rungLoopback {
		srv, err := server.New(st.live, server.Options{
			Obs:   st.reg,
			Cache: &cache.Options{MaxBytes: cacheBytes},
		})
		if err != nil {
			return nil, nil, err
		}
		st.srv = srv
	}
	if rung == rungLoopback {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		st.url = "http://" + ln.Addr().String()
		st.served = make(chan error, 1)
		go func() { st.served <- st.srv.Serve(ln) }()
	}
	c := newClient(st, 0, 1)
	res, err := p.exec(rung, st, c, op{kind: opKNN, filter: -1})
	if err == nil && !slices.Equal(res.nns, p.oracle[0].nns) {
		err = fmt.Errorf("first answer differs from the linear scan")
	}
	if err != nil {
		_ = st.close() // the set-up already failed; its error is the one to report
		return nil, nil, fmt.Errorf("%s set-up: %w", rung, err)
	}
	parts.totalS = time.Since(start).Seconds()
	if fi, err := os.Stat(p.snapPath()); err == nil {
		parts.snapBytes = fi.Size()
	}
	return st, parts, nil
}

// idQueue holds ids a client inserted and may later delete, oldest
// first. Clients of one server share a queue, so it locks.
type idQueue struct {
	mu  sync.Mutex
	ids []int
}

func (q *idQueue) push(id int) {
	q.mu.Lock()
	q.ids = append(q.ids, id)
	q.mu.Unlock()
}

func (q *idQueue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ids) == 0 {
		return 0, false
	}
	id := q.ids[0]
	q.ids = q.ids[1:]
	return id, true
}

// client is one caller's private state against one stack.
type client struct {
	id, clients int
	added       *idQueue
	http        *http.Client
	epoch       uint64 // highest epoch an answer has reported to this client
}

func newClient(st *stack, id, clients int) *client {
	c := &client{id: id, clients: clients, added: &idQueue{}}
	if st.seeded != nil {
		c.added = st.seeded
	}
	if st.url != "" {
		c.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	return c
}

// result is what an op returned, reduced to what the checks read.
type result struct {
	nns   []core.Neighbor
	ids   []int
	batch [][]core.Neighbor
	epoch uint64
	bytes int // response body size on the server rungs
}

func (p *prepared) exec(rung string, st *stack, c *client, o op) (result, error) {
	switch rung {
	case rungIndex:
		return p.execIndex(st, c, o)
	case rungLive:
		return p.execLive(st, c, o)
	default:
		return p.execHTTP(st, c, o)
	}
}

var errNoID = errors.New("delete with no inserted id outstanding")

// execIndex calls the index (and, for writes, the dataset beside it)
// directly. A filter is ignored here: the raw index has none, which is
// what makes the rung above it show the cost of planning.
func (p *prepared) execIndex(st *stack, c *client, o op) (res result, err error) {
	switch o.kind {
	case opKNN:
		res.nns, err = st.idx.KNNSearch(p.pool[o.q], knnK)
	case opRange:
		res.ids, err = st.idx.RangeSearch(p.pool[o.q], p.radius)
	case opBatch:
		res.batch = make([][]core.Neighbor, len(o.batch))
		for i, q := range o.batch {
			if res.batch[i], err = st.idx.KNNSearch(p.pool[q], knnK); err != nil {
				break
			}
		}
	case opInsert:
		id := st.ds.Insert(p.inserts[o.obj])
		if err = st.ds.SetAttrs(id, o.attrs()); err == nil {
			err = st.idx.Insert(id)
		}
		c.added.push(id)
	case opDelete:
		id, ok := c.added.pop()
		if !ok {
			return res, errNoID
		}
		if err = st.idx.Delete(id); err == nil {
			err = st.ds.Delete(id)
		}
	case opSetAttrs:
		err = st.ds.SetAttrs(int(o.obj)*c.clients+c.id, o.attrs())
	}
	return res, err
}

func (p *prepared) execLive(st *stack, c *client, o op) (res result, err error) {
	l := st.live
	switch o.kind {
	case opKNN:
		if o.filter >= 0 {
			res.nns, res.epoch, _, err = l.KNNSearchFiltered(p.pool[o.q], knnK, p.preds[o.filter])
		} else {
			res.nns, res.epoch, err = l.KNNSearchAt(p.pool[o.q], knnK)
		}
	case opRange:
		if o.filter >= 0 {
			res.ids, res.epoch, _, err = l.RangeSearchFiltered(p.pool[o.q], p.radius, p.preds[o.filter])
		} else {
			res.ids, res.epoch, err = l.RangeSearchAt(p.pool[o.q], p.radius)
		}
	case opBatch:
		res.batch = make([][]core.Neighbor, len(o.batch))
		for i, q := range o.batch {
			if res.batch[i], res.epoch, err = l.KNNSearchAt(p.pool[q], knnK); err != nil {
				break
			}
		}
	case opInsert:
		var id int
		if id, res.epoch, err = l.AddAttrsAt(p.inserts[o.obj], o.attrs()); err == nil {
			c.added.push(id)
		}
	case opDelete:
		id, ok := c.added.pop()
		if !ok {
			return res, errNoID
		}
		res.epoch, err = l.RemoveAt(id)
	case opSetAttrs:
		res.epoch, err = l.SetAttrsAt(int(o.obj)*c.clients+c.id, o.attrs())
	}
	return res, err
}

// execHTTP posts the op to the server: over the loopback listener when
// the stack has one, otherwise straight into the handler tree with an
// in-memory recorder. Both decode the response the same way, so the
// difference between the two rungs is net/http and TCP alone.
func (p *prepared) execHTTP(st *stack, c *client, o op) (res result, err error) {
	var path string
	var body, into any
	filter := ""
	if o.filter >= 0 {
		filter = filterBattery[o.filter]
	}
	var knn server.KNNResponse
	var rng server.RangeResponse
	var batch server.BatchResponse
	var ins server.InsertResponse
	var del server.DeleteResponse
	var att server.AttrsResponse
	switch o.kind {
	case opKNN:
		path, body, into = "/v1/knn", server.KNNRequest{Query: p.poolJSON[o.q], K: knnK, Filter: filter}, &knn
	case opRange:
		path, body, into = "/v1/range", server.RangeRequest{Query: p.poolJSON[o.q], Radius: p.radius, Filter: filter}, &rng
	case opBatch:
		qs := make([]json.RawMessage, len(o.batch))
		for i, q := range o.batch {
			qs[i] = p.poolJSON[q]
		}
		path, body, into = "/v1/batch", server.BatchRequest{Type: "knn", Queries: qs, K: knnK}, &batch
	case opInsert:
		path, into = "/v1/insert", &ins
		body = server.InsertRequest{Object: p.insJSON[o.obj], Attrs: json.RawMessage(o.attrsJSON())}
	case opDelete:
		id, ok := c.added.pop()
		if !ok {
			return res, errNoID
		}
		path, body, into = "/v1/delete", server.DeleteRequest{ID: id}, &del
	case opSetAttrs:
		path, into = "/v1/attrs", &att
		body = server.AttrsRequest{ID: int(o.obj)*c.clients + c.id, Attrs: json.RawMessage(o.attrsJSON())}
	}
	enc, err := json.Marshal(body)
	if err != nil {
		return res, err
	}
	var status int
	var raw []byte
	if st.url != "" {
		resp, err := c.http.Post(st.url+path, "application/json", bytes.NewReader(enc))
		if err != nil {
			return res, err
		}
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return res, err
		}
		status = resp.StatusCode
	} else {
		rec := httptest.NewRecorder()
		st.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(enc)))
		status, raw = rec.Code, rec.Body.Bytes()
	}
	if status != http.StatusOK {
		return res, fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return res, fmt.Errorf("%s: decode: %w", path, err)
	}
	res.bytes = len(raw)
	switch o.kind {
	case opKNN:
		res.nns, res.epoch = fromWire(knn.Neighbors), knn.Epoch
	case opRange:
		res.ids, res.epoch = rng.IDs, rng.Epoch
	case opBatch:
		res.epoch = batch.EpochLow
		for _, nns := range batch.Neighbors {
			res.batch = append(res.batch, fromWire(nns))
		}
	case opInsert:
		res.epoch = ins.Epoch
		c.added.push(ins.ID)
	case opDelete:
		res.epoch = del.Epoch
	case opSetAttrs:
		res.epoch = att.Epoch
	}
	return res, nil
}

func fromWire(nns []server.Neighbor) []core.Neighbor {
	out := make([]core.Neighbor, len(nns))
	for i, nb := range nns {
		out[i] = core.Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	return out
}

// check decides whether an op's answer counts as verified. Read-only
// workloads compare every answer with the linear scan; workloads that
// write change the dataset under the queries, so inside the window they
// check the answer's structure and the exact comparison happens before
// and after (verify).
func (p *prepared) check(c *client, o op, res result) bool {
	if !p.sp.writes() {
		switch o.kind {
		case opKNN:
			return slices.Equal(res.nns, p.oracle[o.q].nns)
		case opRange:
			return slices.Equal(res.ids, p.oracle[o.q].ids)
		}
	}
	if res.epoch < c.epoch {
		return false
	}
	c.epoch = res.epoch
	switch o.kind {
	case opKNN:
		return sortedNeighbors(res.nns)
	case opRange:
		return slices.IsSorted(res.ids)
	case opBatch:
		if len(res.batch) != len(o.batch) {
			return false
		}
		for _, nns := range res.batch {
			if !sortedNeighbors(nns) {
				return false
			}
		}
	}
	return true
}

func sortedNeighbors(nns []core.Neighbor) bool {
	if len(nns) > knnK {
		return false
	}
	for i := 1; i < len(nns); i++ {
		if nns[i].Dist < nns[i-1].Dist {
			return false
		}
	}
	return true
}
