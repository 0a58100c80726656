package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/server"
)

// The tests here cover what only cmd/mserve can: that boot assembles a
// working stack (dataset file → index or sharded front → cached, swappable,
// instrumented server) and that a second boot on the same -data-dir
// restores the exact pre-shutdown state. Endpoint semantics, admission,
// caching and the filtered workload are internal/server's tests.

const (
	testK       = 10
	probeFilter = `stock < 25` // selectivity 0.25 of 1500 bags: a probe where the index pushes down
)

// stack is one booted mserve behind an httptest listener.
type stack struct {
	t    *testing.T
	base string
	live *epoch.Live
	gen  *dataset.Generated
}

func writeDataset(t *testing.T) string {
	t.Helper()
	gen, err := dataset.Generate(dataset.LA, dataset.Config{N: 1500, Queries: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AttachAttrs(gen, 43); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "la.midx")
	if err := dataset.Save(path, gen); err != nil {
		t.Fatal(err)
	}
	return path
}

// bootStack boots cfg and serves it until the returned stop is called
// (stop closes the WAL, like main's deferred cleanup).
func bootStack(t *testing.T, cfg config) (*stack, func()) {
	t.Helper()
	cfg.pivots, cfg.workers, cfg.cacheMB, cfg.fsync, cfg.metrics = 5, -1, 8, "always", true
	srv, live, cleanup, err := boot(cfg)
	if err != nil {
		t.Fatalf("boot %+v: %v", cfg, err)
	}
	gen, err := dataset.Load(cfg.data)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &stack{t: t, base: ts.URL, live: live, gen: gen}, func() { ts.Close(); cleanup() }
}

// call POSTs body (GETs when nil) and decodes a 200 into out.
func (s *stack) call(path string, body, out any) {
	s.t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(s.base + path)
	} else {
		raw, merr := json.Marshal(body)
		if merr != nil {
			s.t.Fatal(merr)
		}
		resp, err = http.Post(s.base+path, "application/json", bytes.NewReader(raw))
	}
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.t.Fatalf("%s: status %d, read error %v: %s", path, resp.StatusCode, err, data)
	}
	if raw, ok := out.(*string); ok {
		*raw = string(data)
	} else if err := json.Unmarshal(data, out); err != nil {
		s.t.Fatalf("%s: %v in %s", path, err, data)
	}
}

func rawQuery(t *testing.T, q core.Object) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// answers serves every workload query as kNN and range and checks both
// against a linear scan of the live dataset; it returns the kNN answers.
func (s *stack) answers() [][]server.Neighbor {
	s.t.Helper()
	radius := dataset.CalibrateRadius(s.gen, 0.05)
	var out [][]server.Neighbor
	for qi, q := range s.gen.Queries {
		var kr server.KNNResponse
		s.call("/v1/knn", server.KNNRequest{Query: rawQuery(s.t, q), K: testK}, &kr)
		var rr server.RangeResponse
		s.call("/v1/range", server.RangeRequest{Query: rawQuery(s.t, q), Radius: radius}, &rr)
		s.live.View(func(ds *core.Dataset, _ core.Index) {
			want := core.BruteForceKNN(ds, q, testK)
			if len(kr.Neighbors) != len(want) || kr.Neighbors[testK-1].Dist != want[testK-1].Dist {
				s.t.Fatalf("query %d: served kNN %v, linear scan %v", qi, kr.Neighbors, want)
			}
			if wantIDs := core.BruteForceRange(ds, q, radius); !reflect.DeepEqual(rr.IDs, wantIDs) {
				s.t.Fatalf("query %d: served range %v, linear scan %v", qi, rr.IDs, wantIDs)
			}
		})
		out = append(out, kr.Neighbors)
	}
	return out
}

// exercise is the boot-assembly check every leg runs: right index behind
// /healthz, exact answers before and after a swap through boot's rebuild
// closure, the trace and plan surfaces wired through (a filtered kNN
// planned as wantPlan), and one /metrics family per subsystem boot put on
// the shared registry.
func (s *stack) exercise(wantIndex, wantPlan string, durable bool) {
	s.t.Helper()
	sharded := strings.HasPrefix(wantIndex, "Sharded[")
	var health server.HealthResponse
	s.call("/healthz", nil, &health)
	if health.Status != "ok" || !strings.HasPrefix(health.Index, wantIndex) {
		s.t.Fatalf("healthz %+v, want index %s…", health, wantIndex)
	}
	s.answers()

	// A traced filtered kNN keeps its plan span, and on a sharded front
	// the trace travels through the scatter.
	q0 := rawQuery(s.t, s.gen.Queries[0])
	var ft server.KNNResponse
	s.call("/v1/knn", server.KNNRequest{Query: q0, K: testK, Filter: probeFilter, Trace: true}, &ft)
	spans := map[string]bool{}
	if ft.Trace != nil {
		for _, sp := range ft.Trace.Spans {
			spans[sp.Name] = true
		}
	}
	if ft.Strategy != wantPlan || !spans["plan"] || !spans["cache_probe"] || !spans["read_section"] ||
		(sharded && !(spans["probe_shard0"] && spans["probe_shard1"] && spans["merge"])) {
		s.t.Fatalf("traced filtered kNN (sharded=%v): strategy %q, spans %+v", sharded, ft.Strategy, ft.Trace)
	}
	var fb server.BatchResponse
	s.call("/v1/batch", server.BatchRequest{Type: "knn", Queries: []json.RawMessage{q0, q0, q0}, K: testK, Filter: probeFilter}, &fb)
	if len(fb.Plans) != 3 || len(fb.Neighbors) != 3 {
		s.t.Fatalf("filtered batch of 3: %d plans, %d answers", len(fb.Plans), len(fb.Neighbors))
	}

	var sw server.SwapResponse
	s.call("/v1/swap", struct{}{}, &sw)
	var st server.StatsResponse
	s.call("/v1/stats", nil, &st)
	if st.Index.Epoch != sw.Epoch || !strings.HasPrefix(st.Index.Name, wantIndex) || st.Index.Count != 1500 {
		s.t.Fatalf("after swap at epoch %d: index stats %+v", sw.Epoch, st.Index)
	}
	if !st.Cache.Enabled || st.Persistence.Enabled != durable || (durable && st.Persistence.SnapshotEpoch != sw.Epoch) {
		s.t.Fatalf("after swap at epoch %d: cache %+v, persistence %+v", sw.Epoch, st.Cache, st.Persistence)
	}
	s.answers()

	families := []string{
		"mx_server_requests_total", "mx_server_request_seconds", "mx_server_client_requests_total",
		"mx_server_admitted_total", "mx_server_queue_depth", "mx_compdists_total",
		"mx_index_epoch", "mx_index_objects", "mx_cache_hits_total", "mx_cache_entries",
		"mx_exec_batches_total", "mx_exec_batch_queries", "mx_epoch_swaps_total",
		"mx_epoch_write_wait_seconds", "mx_plan_strategy_total",
		"mx_store_page_reads_total", "mx_store_cache_hits_total",
	}
	if sharded {
		families = append(families, "mx_shard_probe_seconds")
	}
	if durable {
		families = append(families, "mx_persist_snapshots_total", "mx_persist_snapshot_seconds",
			"mx_persist_wal_appends_total", "mx_persist_wal_fsync_seconds",
			"mx_persist_snapshot_epoch", "mx_persist_wal_records")
	}
	var text string
	s.call("/metrics", nil, &text)
	for _, fam := range families {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			s.t.Errorf("/metrics lacks the %s family", fam)
		}
	}
	for _, zero := range []string{"mx_compdists_total 0\n", "mx_exec_batches_total 0\n", "mx_epoch_swaps_total 0\n", "mx_server_admitted_total 0\n"} {
		if strings.Contains(text, "\n"+zero) {
			s.t.Errorf("/metrics reports %q after queries, a batch and a swap", strings.TrimSpace(zero))
		}
	}
}

func TestBootLAESA(t *testing.T) {
	s, stop := bootStack(t, config{data: writeDataset(t), index: "LAESA"})
	defer stop()
	s.exercise("LAESA", "probe", false)
}

func TestBootShardedSPBTree(t *testing.T) {
	s, stop := bootStack(t, config{data: writeDataset(t), index: "SPB-tree", shards: 2})
	defer stop()
	// The SPB-tree shards cannot push the filter down, so the planner
	// post-filters the front's answer instead of probing.
	s.exercise("Sharded[", "post", false)
}

// TestBootRestoresExactState: the first boot on an empty -data-dir
// builds, snapshots and journals; after writes and a shutdown, the second
// boot must come back restored — no rebuild, no new snapshot — at the
// same epoch with the same objects, bags and answers.
func TestBootRestoresExactState(t *testing.T) {
	restartLeg(t, "LAESA", "probe")
}

// TestBootRestoresDiskEPTStar runs the restart leg on a disk family the
// paper's tables leave out: its table pages and RAF come back from the
// snapshot. DiskEPT* takes the filter into its page scan
// (plan.PushdownScan), so the filtered query probes.
func TestBootRestoresDiskEPTStar(t *testing.T) {
	restartLeg(t, "DiskEPT*", "probe")
}

func restartLeg(t *testing.T, index, wantPlan string) {
	cfg := config{data: writeDataset(t), index: index, dataDir: filepath.Join(t.TempDir(), "state")}
	s, stop := bootStack(t, cfg)
	s.exercise(index, wantPlan, true)

	// Three journaled writes on top of the swap's snapshot: an insert
	// with a bag only it carries, a delete, and an attrs rewrite.
	obj := rawQuery(t, s.gen.Queries[0])
	var ins server.InsertResponse
	s.call("/v1/insert", server.InsertRequest{Object: obj, Attrs: json.RawMessage(`{"category":"restart-only"}`)}, &ins)
	s.call("/v1/delete", server.DeleteRequest{ID: 7}, &server.DeleteResponse{})
	s.call("/v1/attrs", server.AttrsRequest{ID: 8, Attrs: json.RawMessage(`{"category":"restart-only","stock":1}`)}, &server.AttrsResponse{})
	var before server.StatsResponse
	s.call("/v1/stats", nil, &before)
	if before.Persistence.Restored || before.Persistence.WALRecords != 3 {
		t.Fatalf("first boot: persistence %+v, want a fresh build with 3 WAL records", before.Persistence)
	}
	want := s.answers()
	stop()

	s, stop = bootStack(t, cfg)
	defer stop()
	var after server.StatsResponse
	s.call("/v1/stats", nil, &after)
	if !after.Persistence.Restored || after.Persistence.WALRecords != 3 ||
		after.Persistence.SnapshotEpoch != before.Persistence.SnapshotEpoch {
		t.Fatalf("second boot: persistence %+v, want restored from %+v", after.Persistence, before.Persistence)
	}
	if after.Index.Epoch != before.Index.Epoch || after.Index.Count != before.Index.Count || after.Index.Name != before.Index.Name {
		t.Fatalf("restored index %+v, shut down as %+v", after.Index, before.Index)
	}
	var text string
	s.call("/metrics", nil, &text)
	if !strings.Contains(text, "\nmx_persist_snapshots_total 0\n") {
		t.Fatal("the second boot wrote a snapshot: it rebuilt instead of restoring")
	}
	if got := s.answers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored answers differ:\n got %v\nwant %v", got, want)
	}
	var only server.RangeResponse
	s.call("/v1/range", server.RangeRequest{Query: obj, Radius: 0, Filter: `category = "restart-only"`}, &only)
	if !reflect.DeepEqual(only.IDs, []int{ins.ID}) {
		t.Fatalf("filter on the journaled bags at the inserted point served %v, want [%d]", only.IDs, ins.ID)
	}
}
