package server

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// TestMetricsEndpoint: after real traffic, GET /metrics serves a
// Prometheus text exposition carrying a family per instrumented layer,
// and the numbers agree with /v1/stats — both are views over the same
// sources.
func TestMetricsEndpoint(t *testing.T) {
	_, live, ts := newTestServer(t, 300, Options{Cache: &cache.Options{MaxBytes: 1 << 20}})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })

	q := testutil.RandomQuery(ds, 1)
	const n = 4
	for i := 0; i < n; i++ {
		var kr KNNResponse
		if code := postAs(t, fmt.Sprintf("tenant-%d", i%2), ts.URL+"/v1/knn", map[string]any{"query": q, "k": 5}, &kr); code != 200 {
			t.Fatalf("knn: status %d", code)
		}
	}

	text := scrape(t, ts.URL)
	// benchmark/trace.go sums every series whose name starts with
	// mx_server_requests_total into its shed ratio, so the per-client
	// families must not share that prefix: n requests count n, not 2n.
	var requests float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "mx_server_requests_total") {
			requests += scrapeValue(t, text, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	if requests != n || scrapeValue(t, text, `mx_server_client_requests_total{client="tenant-0"}`) != n/2 {
		t.Fatalf("after %d requests the mx_server_requests_total series sum to %v:\n%s", n, requests, text)
	}
	for _, family := range []string{
		"mx_server_requests_total", "mx_server_request_seconds_bucket",
		"mx_server_admitted_total", "mx_server_inflight",
		"mx_compdists_total", "mx_index_epoch", "mx_index_objects",
		"mx_cache_hits_total", "mx_cache_entries",
		"mx_exec_batches_total", "mx_epoch_swaps_total",
		"mx_epoch_write_wait_seconds_count", "mx_store_page_reads_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %s", family)
		}
	}

	// Cross-check against /v1/stats: the admitted counter and the cache
	// hit counter must be the same numbers on both surfaces.
	var st StatsResponse
	if code := get(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	// The stats request itself is admitted after the scrape, so allow it.
	admitted := scrapeValue(t, text, "mx_server_admitted_total")
	if admitted > float64(st.Admission.Admitted) || admitted <= 0 {
		t.Fatalf("metrics admitted %v, stats %d", admitted, st.Admission.Admitted)
	}
	if hits := scrapeValue(t, text, "mx_cache_hits_total"); hits != float64(st.Cache.Hits) {
		t.Fatalf("metrics cache hits %v, stats %d", hits, st.Cache.Hits)
	}
}

// scrape fetches the exposition text of GET /metrics.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// scrapeValue pulls one sample value (name with its label set, if any)
// out of an exposition.
func scrapeValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample for %s", name)
	return 0
}

// TestMetricsDisabled: DisableMetrics unmounts the scrape endpoint but
// the instrumentation (admission control shares the registry) keeps
// working.
func TestMetricsDisabled(t *testing.T) {
	_, live, ts := newTestServer(t, 100, Options{DisableMetrics: true})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })
	if code := get(t, ts.URL+"/metrics", nil); code != http.StatusNotFound {
		t.Fatalf("GET /metrics with DisableMetrics: status %d, want 404", code)
	}
	q := testutil.RandomQuery(ds, 2)
	var kr KNNResponse
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": 3}, &kr); code != 200 {
		t.Fatalf("knn: status %d", code)
	}
}

// TestTracedQuery: the trace flag returns a span timeline covering the
// request path without changing the answer, and the cache hit/miss
// paths produce their distinct span shapes.
func TestTracedQuery(t *testing.T) {
	_, live, ts := newTestServer(t, 300, Options{Cache: &cache.Options{MaxBytes: 1 << 20}})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })
	q := testutil.RandomQuery(ds, 3)
	const k = 6

	// First traced call misses the cache: full pipeline.
	var traced KNNResponse
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": k, "trace": true}, &traced); code != 200 {
		t.Fatalf("traced knn: status %d", code)
	}
	if traced.Trace == nil {
		t.Fatal("trace requested but response has none")
	}
	names := map[string]bool{}
	for _, sp := range traced.Trace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"admission_wait", "decode", "cache_probe", "read_wait", "read_section", "encode"} {
		if !names[want] {
			t.Errorf("miss-path trace lacks %q span: %v", want, traced.Trace.Spans)
		}
	}
	for _, sp := range traced.Trace.Spans {
		if sp.Name == "read_section" && sp.CompDists <= 0 {
			t.Errorf("read_section recorded %d compdists on an uncached query", sp.CompDists)
		}
	}

	// Untraced call: same answer, no trace, and (same epoch) a cache hit
	// on the entry the traced miss filled.
	var plain KNNResponse
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": k}, &plain); code != 200 {
		t.Fatalf("knn: status %d", code)
	}
	if plain.Trace != nil {
		t.Fatal("trace returned without being requested")
	}
	if !reflect.DeepEqual(traced.Neighbors, plain.Neighbors) || traced.Epoch != plain.Epoch {
		t.Fatalf("tracing changed the answer:\ntraced %v (epoch %d)\nplain  %v (epoch %d)",
			traced.Neighbors, traced.Epoch, plain.Neighbors, plain.Epoch)
	}
	st, ok := live.CacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("traced miss did not fill the cache: %+v", st)
	}

	// Second traced call hits the cache: probe span, no read section.
	var hit KNNResponse
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": k, "trace": true}, &hit); code != 200 {
		t.Fatalf("traced knn (hit): status %d", code)
	}
	hitNames := map[string]bool{}
	for _, sp := range hit.Trace.Spans {
		hitNames[sp.Name] = true
	}
	if !hitNames["cache_probe"] || hitNames["read_section"] {
		t.Fatalf("hit-path trace should probe the cache and skip the read section: %v", hit.Trace.Spans)
	}
	if !reflect.DeepEqual(hit.Neighbors, plain.Neighbors) {
		t.Fatalf("cached traced answer differs: %v vs %v", hit.Neighbors, plain.Neighbors)
	}

	// Range tracing follows the same contract.
	var rr RangeResponse
	if code := post(t, ts.URL+"/v1/range", map[string]any{"query": q, "radius": 25.0, "trace": true}, &rr); code != 200 {
		t.Fatalf("traced range: status %d", code)
	}
	if rr.Trace == nil || len(rr.Trace.Spans) == 0 {
		t.Fatal("traced range returned no spans")
	}
	wantIDs, err := live.RangeSearch(q, 25.0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.IDs, normIDs(wantIDs)) {
		t.Fatalf("traced range answer differs: %v vs %v", rr.IDs, wantIDs)
	}
}

// TestSlowQueryLog: every admitted request at or over the threshold is
// logged with its endpoint and costs; a generous threshold logs nothing.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	_, live, ts := newTestServer(t, 200, Options{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLogf:      logf,
	})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })
	q := testutil.RandomQuery(ds, 4)
	var kr KNNResponse
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": 4}, &kr); code != 200 {
		t.Fatalf("knn: status %d", code)
	}
	mu.Lock()
	logged := append([]string(nil), lines...)
	mu.Unlock()
	if len(logged) == 0 {
		t.Fatal("threshold 1ns logged nothing")
	}
	found := false
	for _, ln := range logged {
		if strings.Contains(ln, "endpoint=knn") && strings.Contains(ln, "compdists=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no knn slow-query line with costs in %q", logged)
	}

	// Threshold zero disables the log entirely.
	var quiet []string
	_, live2, ts2 := newTestServer(t, 100, Options{
		SlowQueryLogf: func(format string, args ...any) {
			mu.Lock()
			quiet = append(quiet, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	var ds2 *core.Dataset
	live2.View(func(d *core.Dataset, _ core.Index) { ds2 = d })
	if code := post(t, ts2.URL+"/v1/knn", map[string]any{"query": testutil.RandomQuery(ds2, 5), "k": 3}, &kr); code != 200 {
		t.Fatalf("knn: status %d", code)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(quiet) != 0 {
		t.Fatalf("threshold 0 logged %q", quiet)
	}
}

// TestPProfMount: the profiler endpoints exist only when opted in.
func TestPProfMount(t *testing.T) {
	_, _, ts := newTestServer(t, 100, Options{PProf: true})
	if code := get(t, ts.URL+"/debug/pprof/", nil); code != 200 {
		t.Fatalf("GET /debug/pprof/ with PProf: status %d", code)
	}
	_, _, off := newTestServer(t, 100, Options{})
	if code := get(t, off.URL+"/debug/pprof/", nil); code == 200 {
		t.Fatal("pprof mounted without opting in")
	}
}
