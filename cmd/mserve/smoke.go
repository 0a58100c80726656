package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
	"metricindex/internal/server"
)

// runSmoke boots the server on a loopback port and exercises every
// endpoint from a real HTTP client, verifying each answer two ways:
// byte-for-byte against the direct call on the live index (the server
// adds transport, never approximation) and against a brute-force linear
// scan of the current dataset (the same check msearch -verify runs). It
// finishes with a graceful swap under sustained query load that must
// drop zero requests and corrupt zero answers, then scrapes GET /metrics
// and validates the exposition covers every instrumented subsystem.
func runSmoke(srv *server.Server, live *epoch.Live, gen *dataset.Generated, metricsOn bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() {
		ctx, cancel := contextWithTimeout()
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + ln.Addr().String()

	var health server.HealthResponse
	if err := call(base+"/healthz", nil, &health); err != nil {
		return err
	}
	if health.Status != "ok" {
		return fmt.Errorf("healthz: %+v", health)
	}
	fmt.Printf("smoke: serving %s at %s\n", health.Index, base)

	radius := dataset.CalibrateRadius(gen, 0.05)
	const k = 10

	// Single-query endpoints, every workload query.
	for qi, q := range gen.Queries {
		raw, err := json.Marshal(q)
		if err != nil {
			return err
		}
		var rr server.RangeResponse
		if err := call(base+"/v1/range", server.RangeRequest{Query: raw, Radius: radius}, &rr); err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
		if err := verifyRange(live, q, radius, rr.IDs); err != nil {
			return fmt.Errorf("query %d range: %w", qi, err)
		}
		var kr server.KNNResponse
		if err := call(base+"/v1/knn", server.KNNRequest{Query: raw, K: k}, &kr); err != nil {
			return fmt.Errorf("query %d: %w", qi, err)
		}
		if err := verifyKNN(live, q, k, kr.Neighbors); err != nil {
			return fmt.Errorf("query %d knn: %w", qi, err)
		}
	}
	fmt.Printf("smoke: %d range + %d knn answers equal direct calls and linear scan ✓\n",
		len(gen.Queries), len(gen.Queries))

	// Batch endpoint, both workload types in one round trip each.
	raws := make([]json.RawMessage, len(gen.Queries))
	for i, q := range gen.Queries {
		if raws[i], err = json.Marshal(q); err != nil {
			return err
		}
	}
	var br server.BatchResponse
	if err := call(base+"/v1/batch", server.BatchRequest{Type: "range", Queries: raws, Radius: radius}, &br); err != nil {
		return fmt.Errorf("batch range: %w", err)
	}
	for i, ids := range br.IDs {
		if err := verifyRange(live, gen.Queries[i], radius, ids); err != nil {
			return fmt.Errorf("batch range %d: %w", i, err)
		}
	}
	if err := call(base+"/v1/batch", server.BatchRequest{Type: "knn", Queries: raws, K: k}, &br); err != nil {
		return fmt.Errorf("batch knn: %w", err)
	}
	for i, nns := range br.Neighbors {
		if err := verifyKNN(live, gen.Queries[i], k, nns); err != nil {
			return fmt.Errorf("batch knn %d: %w", i, err)
		}
	}
	if br.Stats.Queries != len(gen.Queries) || br.Stats.P50Micros < 0 {
		return fmt.Errorf("batch stats malformed: %+v", br.Stats)
	}
	_, cacheOn := live.CacheStats()
	if cacheOn {
		// The batch repeated the single-query leg's knn workload at the
		// same epoch, so the answer cache must have served it before
		// dispatch — and still byte-identically (verified above).
		if br.Stats.CacheHits == 0 {
			return fmt.Errorf("batch repeated a cached workload but reported zero cache hits: %+v", br.Stats)
		}
		fmt.Printf("smoke: repeated batch served from answer cache (%d/%d hits) ✓\n",
			br.Stats.CacheHits, br.Stats.Queries)
	}
	fmt.Printf("smoke: batch endpoint verified over %d queries (p50 %dµs, p99 %dµs, %.0f q/s) ✓\n",
		br.Stats.Queries, br.Stats.P50Micros, br.Stats.P99Micros, br.Stats.QPS)

	// Insert/delete round trip through the API.
	obj, err := json.Marshal(gen.Queries[0])
	if err != nil {
		return err
	}
	var ir server.InsertResponse
	if err := call(base+"/v1/insert", server.InsertRequest{Object: obj}, &ir); err != nil {
		return fmt.Errorf("insert: %w", err)
	}
	var rr server.RangeResponse
	if err := call(base+"/v1/range", server.RangeRequest{Query: obj, Radius: 0}, &rr); err != nil {
		return err
	}
	if !contains(rr.IDs, ir.ID) {
		return fmt.Errorf("inserted object %d not served: got %v", ir.ID, rr.IDs)
	}
	if err := call(base+"/v1/delete", server.DeleteRequest{ID: ir.ID}, &server.DeleteResponse{}); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	if err := call(base+"/v1/range", server.RangeRequest{Query: obj, Radius: 0}, &rr); err != nil {
		return err
	}
	if contains(rr.IDs, ir.ID) {
		return fmt.Errorf("deleted object %d still served", ir.ID)
	}
	fmt.Println("smoke: insert/delete round trip ✓")

	// Filtered (hybrid) search: attach attribute bags over the wire,
	// then filtered range and knn answers must equal the brute-force
	// filter-then-scan, and the response must name the plan strategy.
	if err := smokeFiltered(base, live, gen, radius, k); err != nil {
		return fmt.Errorf("filtered: %w", err)
	}
	fmt.Println("smoke: filtered search verified against filter-then-scan ✓")

	// Traced query: the span timeline must cover the request's whole
	// path, and tracing must not change the answer. The insert/delete
	// above bumped the epoch, so this traced query misses the answer
	// cache and exercises the full read-section pipeline.
	sharded := len(live.Name()) > len("Sharded[") && live.Name()[:len("Sharded[")] == "Sharded["
	var traced server.KNNResponse
	if err := call(base+"/v1/knn", server.KNNRequest{Query: raws[0], K: k, Trace: true}, &traced); err != nil {
		return fmt.Errorf("traced knn: %w", err)
	}
	if traced.Trace == nil || len(traced.Trace.Spans) == 0 {
		return fmt.Errorf("traced knn returned no trace")
	}
	spanNames := map[string]bool{}
	var readSection *obs.Span
	for i := range traced.Trace.Spans {
		sp := &traced.Trace.Spans[i]
		spanNames[sp.Name] = true
		if sp.Name == "read_section" {
			readSection = sp
		}
	}
	for _, want := range []string{"admission_wait", "decode", "read_section", "encode"} {
		if !spanNames[want] {
			return fmt.Errorf("trace missing %q span: have %v", want, traced.Trace.Spans)
		}
	}
	if cacheOn && !spanNames["cache_probe"] {
		return fmt.Errorf("cache enabled but trace has no cache_probe span")
	}
	if sharded {
		if !spanNames["probe_shard0"] || !spanNames["merge"] {
			return fmt.Errorf("sharded front but trace has no per-shard probe/merge spans: %v", traced.Trace.Spans)
		}
		// The accept test and the trace travel through the scatter
		// together, so a filtered traced query keeps its shard spans.
		// smokeFiltered tagged enough objects with a stock that this
		// predicate is planned as a probe, not a pre-filter scan.
		var ft server.KNNResponse
		if err := call(base+"/v1/knn", server.KNNRequest{Query: raws[0], K: k, Filter: `stock >= 0`, Trace: true}, &ft); err != nil {
			return fmt.Errorf("filtered traced knn: %w", err)
		}
		filteredSpans := map[string]bool{}
		if ft.Trace != nil {
			for _, sp := range ft.Trace.Spans {
				filteredSpans[sp.Name] = true
			}
		}
		if ft.Strategy != "probe" || !filteredSpans["plan"] || !filteredSpans["probe_shard0"] || !filteredSpans["merge"] {
			return fmt.Errorf("filtered traced knn on the sharded front (strategy %q) lost its plan/probe/merge spans: %+v", ft.Strategy, ft.Trace)
		}
	}
	if readSection != nil && readSection.CompDists <= 0 {
		return fmt.Errorf("traced uncached query reported %d compdists in its read section", readSection.CompDists)
	}
	var untraced server.KNNResponse
	if err := call(base+"/v1/knn", server.KNNRequest{Query: raws[0], K: k}, &untraced); err != nil {
		return err
	}
	if err := sameNeighbors(traced.Neighbors, untraced.Neighbors); err != nil {
		return fmt.Errorf("tracing changed the answer: %w", err)
	}
	fmt.Printf("smoke: traced query — %d spans over %dµs, answer unchanged ✓\n",
		len(traced.Trace.Spans), traced.Trace.TotalMicros)

	// Graceful swap under sustained query load: zero dropped, zero wrong.
	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		failed atomic.Int64
		served atomic.Int64
	)
	knnBody, err := json.Marshal(server.KNNRequest{Query: raws[0], K: k})
	if err != nil {
		return err
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(base+"/v1/knn", "application/json", bytes.NewReader(knnBody))
				if err != nil {
					failed.Add(1)
					return
				}
				var kr server.KNNResponse
				decErr := json.NewDecoder(resp.Body).Decode(&kr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil || len(kr.Neighbors) != k {
					failed.Add(1)
					return
				}
				served.Add(1)
			}
		}()
	}
	var sw server.SwapResponse
	swapErr := call(base+"/v1/swap", struct{}{}, &sw)
	stop.Store(true)
	wg.Wait()
	if swapErr != nil {
		return fmt.Errorf("swap: %w", swapErr)
	}
	if failed.Load() != 0 {
		return fmt.Errorf("swap under load: %d of %d queries failed", failed.Load(), failed.Load()+served.Load())
	}
	if err := verifyKNNDirect(live, gen.Queries[0], k); err != nil {
		return fmt.Errorf("post-swap: %w", err)
	}
	// Served answers after the cutover must come from the new structure:
	// the swap bumped the epoch, so no pre-swap cache entry may surface.
	var postSwap server.KNNResponse
	if err := call(base+"/v1/knn", server.KNNRequest{Query: raws[0], K: k}, &postSwap); err != nil {
		return fmt.Errorf("post-swap knn: %w", err)
	}
	if postSwap.Epoch < sw.Epoch {
		return fmt.Errorf("post-swap answer at epoch %d predates the swap commit %d", postSwap.Epoch, sw.Epoch)
	}
	if err := verifyKNN(live, gen.Queries[0], k, postSwap.Neighbors); err != nil {
		return fmt.Errorf("post-swap served answer: %w", err)
	}
	fmt.Printf("smoke: graceful swap rebuilt in %dms with %d queries in flight, zero dropped ✓\n",
		sw.BuildMillis, served.Load())

	// Statistics reflect everything above.
	var st server.StatsResponse
	if err := call(base+"/v1/stats", nil, &st); err != nil {
		return err
	}
	knnStats := st.Endpoints["knn"]
	if knnStats.Count == 0 || knnStats.P50Micros <= 0 || st.Admission.Admitted == 0 {
		return fmt.Errorf("stats malformed: %+v", st)
	}
	if st.Index.Epoch != sw.Epoch {
		return fmt.Errorf("stats epoch %d, swap reported %d", st.Index.Epoch, sw.Epoch)
	}
	if cacheOn {
		// The repeated-query legs (batch replay, swap-under-load hammering
		// one query) must have produced real hits.
		if !st.Cache.Enabled || st.Cache.Hits == 0 {
			return fmt.Errorf("cache stats show no hits after repeated-query legs: %+v", st.Cache)
		}
		fmt.Printf("smoke: answer cache — %d hits, %d misses, %.0f%% hit rate, %d KB resident ✓\n",
			st.Cache.Hits, st.Cache.Misses, 100*st.Cache.HitRate, st.Cache.Bytes/1024)
	}
	fmt.Printf("smoke: stats — %d admitted, knn p50 %dµs p99 %dµs, epoch %d\n",
		st.Admission.Admitted, knnStats.P50Micros, knnStats.P99Micros, st.Index.Epoch)

	// Metrics exposition: after everything above every subsystem has
	// traffic, so the scrape must parse as Prometheus text and carry at
	// least one family per layer.
	if metricsOn {
		if err := checkMetrics(base, sharded, st.Persistence.Enabled); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Println("smoke: /metrics exposition parses, every subsystem reporting ✓")
	}
	return nil
}

// smokeFiltered exercises the hybrid-search surface end to end: attach
// attribute bags through POST /v1/attrs, run filtered range/knn/batch
// queries, and verify every answer equals the brute-force
// filter-then-scan over the live dataset (the metamorphic relation the
// planner must preserve regardless of the strategy it picks).
func smokeFiltered(base string, live *epoch.Live, gen *dataset.Generated, radius float64, k int) error {
	// Attribute population: three categories round-robin plus a counter,
	// written over the wire so the endpoint itself is covered.
	cats := []string{"red", "green", "blue"}
	var tagged []int
	live.View(func(ds *core.Dataset, _ core.Index) { tagged = ds.LiveIDs() })
	if len(tagged) > 400 {
		tagged = tagged[:400]
	}
	for i, id := range tagged {
		bag, err := json.Marshal(map[string]any{"category": cats[i%3], "stock": i})
		if err != nil {
			return err
		}
		if err := call(base+"/v1/attrs", server.AttrsRequest{ID: id, Attrs: bag}, &server.AttrsResponse{}); err != nil {
			return fmt.Errorf("set attrs %d: %w", id, err)
		}
	}

	const filter = `category = "red" AND stock < 60`
	pred, err := plan.Parse(filter)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(gen.Queries[0])
	if err != nil {
		return err
	}

	var fr server.RangeResponse
	if err := call(base+"/v1/range", server.RangeRequest{Query: raw, Radius: radius, Filter: filter}, &fr); err != nil {
		return err
	}
	if fr.Strategy == "" {
		return fmt.Errorf("filtered range response carries no strategy")
	}
	var verr error
	live.View(func(ds *core.Dataset, _ core.Index) {
		m := ds.Space().Metric()
		var want []int
		for _, id := range ds.LiveIDs() {
			if pred.Eval(ds.Attrs(id)) && m.Distance(gen.Queries[0], ds.Object(id)) <= radius {
				want = append(want, id)
			}
		}
		if !sameIDs(fr.IDs, want) {
			verr = fmt.Errorf("filtered range served %v, filter-then-scan %v", fr.IDs, want)
		}
	})
	if verr != nil {
		return verr
	}

	var fk server.KNNResponse
	if err := call(base+"/v1/knn", server.KNNRequest{Query: raw, K: k, Filter: filter}, &fk); err != nil {
		return err
	}
	if fk.Strategy == "" {
		return fmt.Errorf("filtered knn response carries no strategy")
	}
	live.View(func(ds *core.Dataset, _ core.Index) {
		m := ds.Space().Metric()
		var want []server.Neighbor
		for _, id := range ds.LiveIDs() {
			if pred.Eval(ds.Attrs(id)) {
				want = append(want, server.Neighbor{ID: id, Dist: m.Distance(gen.Queries[0], ds.Object(id))})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].ID < want[j].ID
		})
		if len(want) > k {
			want = want[:k]
		}
		if verr = sameNeighbors(fk.Neighbors, want); verr != nil {
			verr = fmt.Errorf("filtered knn disagrees with filter-then-scan: %w", verr)
		}
	})
	if verr != nil {
		return verr
	}

	// Filtered batch: per-query plans must be reported, answers already
	// proven equal by construction (same path as the single queries).
	raws := make([]json.RawMessage, len(gen.Queries))
	for i, q := range gen.Queries {
		if raws[i], err = json.Marshal(q); err != nil {
			return err
		}
	}
	var fb server.BatchResponse
	if err := call(base+"/v1/batch", server.BatchRequest{Type: "knn", Queries: raws, K: k, Filter: filter}, &fb); err != nil {
		return err
	}
	if len(fb.Plans) != len(raws) {
		return fmt.Errorf("filtered batch reported %d plans for %d queries", len(fb.Plans), len(raws))
	}

	// Insert with an attribute bag: the new object must be reachable
	// through a filter that matches only it, then vanish on delete.
	bag, err := json.Marshal(map[string]any{"category": "smoke-insert"})
	if err != nil {
		return err
	}
	var ir server.InsertResponse
	if err := call(base+"/v1/insert", server.InsertRequest{Object: raw, Attrs: bag}, &ir); err != nil {
		return fmt.Errorf("insert with attrs: %w", err)
	}
	var only server.RangeResponse
	if err := call(base+"/v1/range",
		server.RangeRequest{Query: raw, Radius: radius, Filter: `category = "smoke-insert"`}, &only); err != nil {
		return err
	}
	if len(only.IDs) != 1 || only.IDs[0] != ir.ID {
		return fmt.Errorf("filter on inserted attrs served %v, want [%d]", only.IDs, ir.ID)
	}
	if err := call(base+"/v1/delete", server.DeleteRequest{ID: ir.ID}, &server.DeleteResponse{}); err != nil {
		return err
	}

	// A malformed filter is a client error, not a server failure.
	err = call(base+"/v1/range", server.RangeRequest{Query: raw, Radius: radius, Filter: "price <"}, &server.RangeResponse{})
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		return fmt.Errorf("malformed filter: want status 400, got %v", err)
	}
	return nil
}

// checkMetrics scrapes GET /metrics, validates the Prometheus text
// exposition line by line, and requires one metric family per
// instrumented subsystem (plus the shard and persistence families when
// those layers are live).
func checkMetrics(base string, sharded, persistent bool) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}

	types := map[string]string{} // family -> counter|gauge|histogram
	values := map[string]float64{}
	for ln, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", ln+1, parts[3])
			}
			if _, dup := types[parts[2]]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if len(strings.Fields(line)) < 4 {
				return fmt.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unknown comment %q", ln+1, line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value: %q", ln+1, line)
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			if !strings.HasSuffix(name, "}") {
				return fmt.Errorf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = name[:br]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suf); ok && types[trimmed] == "histogram" {
				family = trimmed
				break
			}
		}
		if _, ok := types[family]; !ok {
			return fmt.Errorf("line %d: sample %s has no TYPE", ln+1, name)
		}
		values[name] += val
	}

	required := []string{
		"mx_server_requests_total", "mx_server_request_seconds",
		"mx_server_admitted_total", "mx_server_queue_depth",
		"mx_compdists_total",
		"mx_index_epoch", "mx_index_objects",
		"mx_cache_hits_total", "mx_cache_entries",
		"mx_exec_batches_total", "mx_exec_batch_queries",
		"mx_epoch_swaps_total", "mx_epoch_write_wait_seconds",
		"mx_plan_strategy_total",
		"mx_store_page_reads_total", "mx_store_cache_hits_total",
	}
	if sharded {
		required = append(required, "mx_shard_probe_seconds")
	}
	if persistent {
		required = append(required,
			"mx_persist_snapshots_total", "mx_persist_snapshot_seconds",
			"mx_persist_wal_appends_total", "mx_persist_wal_fsync_seconds",
			"mx_persist_snapshot_epoch", "mx_persist_wal_records")
	}
	for _, fam := range required {
		if _, ok := types[fam]; !ok {
			return fmt.Errorf("missing required family %s", fam)
		}
	}
	// The legs above issued requests, computed distances, ran a batch,
	// and committed a swap — the corresponding counters cannot be zero.
	for _, nonzero := range []string{
		"mx_server_admitted_total", "mx_compdists_total",
		"mx_exec_batches_total", "mx_epoch_swaps_total",
		"mx_plan_strategy_total",
		"mx_server_request_seconds_count",
	} {
		if values[nonzero] == 0 {
			return fmt.Errorf("%s is zero after the smoke workload", nonzero)
		}
	}
	if persistent && values["mx_persist_snapshots_total"]+values["mx_persist_wal_appends_total"] == 0 {
		return fmt.Errorf("persistence enabled but no snapshot or WAL activity recorded")
	}
	return nil
}

// sameNeighbors reports whether two served answers are element-wise
// identical.
func sameNeighbors(a, b []server.Neighbor) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d neighbors", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return fmt.Errorf("neighbor %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// call POSTs body (or GETs when body is nil) and decodes into out,
// failing on any non-200.
func call(url string, body, out any) error {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		var raw []byte
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
		resp, err = http.Post(url, "application/json", bytes.NewReader(raw))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// verifyRange checks a served MRQ answer equals both the direct call and
// the linear scan over the current dataset.
func verifyRange(live *epoch.Live, q core.Object, r float64, got []int) error {
	var err error
	live.View(func(ds *core.Dataset, idx core.Index) {
		direct, derr := idx.RangeSearch(q, r)
		if derr != nil {
			err = derr
			return
		}
		if !sameIDs(got, direct) {
			err = fmt.Errorf("served %d ids, direct call %d", len(got), len(direct))
			return
		}
		want := core.BruteForceRange(ds, q, r)
		if !sameIDs(got, want) {
			err = fmt.Errorf("served %d ids, linear scan %d", len(got), len(want))
		}
	})
	return err
}

// verifyKNN checks a served MkNNQ answer equals the direct call
// element-wise and matches the linear scan on count and k-th distance.
func verifyKNN(live *epoch.Live, q core.Object, k int, got []server.Neighbor) error {
	var err error
	live.View(func(ds *core.Dataset, idx core.Index) {
		direct, derr := idx.KNNSearch(q, k)
		if derr != nil {
			err = derr
			return
		}
		if len(got) != len(direct) {
			err = fmt.Errorf("served %d neighbors, direct call %d", len(got), len(direct))
			return
		}
		for i := range got {
			if got[i].ID != direct[i].ID || got[i].Dist != direct[i].Dist {
				err = fmt.Errorf("neighbor %d: served %v, direct %v", i, got[i], direct[i])
				return
			}
		}
		want := core.BruteForceKNN(ds, q, k)
		if len(got) != len(want) || (len(want) > 0 && got[len(got)-1].Dist != want[len(want)-1].Dist) {
			err = fmt.Errorf("served answer disagrees with linear scan")
		}
	})
	return err
}

// verifyKNNDirect re-checks the live index against a quiesced scan.
func verifyKNNDirect(live *epoch.Live, q core.Object, k int) error {
	var err error
	live.View(func(ds *core.Dataset, idx core.Index) {
		got, derr := idx.KNNSearch(q, k)
		if derr != nil {
			err = derr
			return
		}
		want := core.BruteForceKNN(ds, q, k)
		if len(got) != len(want) || (len(want) > 0 && got[len(got)-1].Dist != want[len(want)-1].Dist) {
			err = fmt.Errorf("post-swap answer disagrees with linear scan")
		}
	})
	return err
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func contextWithTimeout() (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}
