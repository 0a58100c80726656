// Command loadgen drives a running mserve instance with a zipf-skewed
// read/write/filtered workload across a concurrency ramp, scrapes
// GET /metrics between steps, and emits a JSON report: latency
// percentiles, shed rate, compdists per query, and the plan-strategy
// mix of filtered queries. With -assert it exits nonzero unless the run
// was error-free, filtered throughput was nonzero, and all three
// planner strategies (pre, probe, post) were exercised — the CI
// load-smoke contract (see docs/HYBRID.md).
//
// The query pool comes from the dataset file the server was booted
// from (-data), so queries are in-distribution and the default filter
// battery matches datagen -attrs bags (category/price/stock/tags).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/exec"
	"metricindex/internal/server"
)

// The default filter battery targets the bags datagen -attrs writes and
// is tuned to make the planner pick every strategy: rare predicates
// (tail category, price tail) plan as pre, mid-selectivity ranges as
// probe (on probe-capable indexes), broad ranges as post.
const defaultFilters = `stock < 25; stock < 90; category = "kappa" AND stock < 50; price > 200; price < 10 OR tags = "sale"; category IN ("alpha", "beta") AND stock >= 50`

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "mserve base URL")
		data     = flag.String("data", "", "dataset file the server was booted from (required: query pool + radius calibration)")
		ramp     = flag.String("ramp", "4,16,32", "comma-separated concurrency steps")
		step     = flag.Duration("step", 10*time.Second, "duration of each ramp step")
		filtered = flag.Float64("filtered", 0.4, "fraction of searches carrying a filter")
		writes   = flag.Float64("writes", 0.05, "fraction of operations that insert (with attrs)")
		knnFrac  = flag.Float64("knn", 0.5, "fraction of searches that are kNN (rest are range)")
		k        = flag.Int("k", 10, "kNN k")
		radius   = flag.Float64("radius", 0, "range radius (0 = calibrate from sampled pairwise distances)")
		zipfS    = flag.Float64("zipf", 1.2, "zipf skew of query selection (higher = hotter head, more cache hits)")
		seed     = flag.Int64("seed", 1, "workload seed")
		filters  = flag.String("filters", defaultFilters, "semicolon-separated filter battery")
		out      = flag.String("out", "", "report file (default stdout)")
		assert   = flag.Bool("assert", false, "exit nonzero unless: zero errors, nonzero filtered ops, all three strategies ran")
	)
	flag.Parse()
	if *data == "" {
		log.Fatal("-data is required")
	}

	gen, err := dataset.Load(*data)
	if err != nil {
		log.Fatalf("load %s: %v", *data, err)
	}
	pool := queryPool(gen)
	if len(pool) == 0 {
		log.Fatal("dataset has no objects to query")
	}
	r := *radius
	if r <= 0 {
		r = calibrateRadius(gen, *seed)
	}
	battery, err := parseFilters(*filters)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := parseRamp(*ramp)
	if err != nil {
		log.Fatal(err)
	}

	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	if err := waitHealthy(client, base, 15*time.Second); err != nil {
		log.Fatalf("server not healthy: %v", err)
	}

	cfg := workload{
		base: base, client: client,
		pool: pool, radius: r, k: *k,
		filtered: *filtered, writes: *writes, knnFrac: *knnFrac,
		zipfS: *zipfS, battery: battery,
	}
	report := Report{
		Data: *data, Radius: r, K: *k, ZipfS: *zipfS,
		Filters: battery, Strategies: map[string]int64{},
	}
	prev, err := scrapeMetrics(client, base)
	if err != nil {
		log.Fatalf("scrape /metrics: %v", err)
	}
	for i, conc := range steps {
		res := runStep(cfg, conc, *step, *seed+int64(i)*4096)
		cur, err := scrapeMetrics(client, base)
		if err != nil {
			log.Fatalf("scrape /metrics: %v", err)
		}
		res.Metrics = metricsDelta(prev, cur, res.Ops)
		prev = cur
		report.Steps = append(report.Steps, res)
		report.Ops += res.Ops
		report.Errors += res.Errors
		report.Sheds += res.Sheds
		report.FilteredOps += res.FilteredOps
		for s, n := range res.Strategies {
			report.Strategies[s] += n
		}
		log.Printf("step %d: conc=%d ops=%d errors=%d sheds=%d p50=%dus p95=%dus p99=%dus plans=%v",
			i+1, conc, res.Ops, res.Errors, res.Sheds, res.P50Micros, res.P95Micros, res.P99Micros, res.Strategies)
	}

	enc, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}

	if *assert {
		var fails []string
		if report.Errors != 0 {
			fails = append(fails, fmt.Sprintf("%d request errors", report.Errors))
		}
		if report.FilteredOps == 0 {
			fails = append(fails, "no filtered operations ran")
		}
		for _, s := range []string{"pre", "probe", "post"} {
			if report.Strategies[s] == 0 {
				fails = append(fails, fmt.Sprintf("strategy %q never chosen", s))
			}
		}
		if len(fails) > 0 {
			log.Fatalf("assertions failed: %s", strings.Join(fails, "; "))
		}
		log.Printf("assertions passed: %d ops, %d filtered, plans=%v", report.Ops, report.FilteredOps, report.Strategies)
	}
}

// Report is the JSON document loadgen emits.
type Report struct {
	Data        string           `json:"data"`
	Radius      float64          `json:"radius"`
	K           int              `json:"k"`
	ZipfS       float64          `json:"zipf_s"`
	Filters     []string         `json:"filters"`
	Steps       []StepResult     `json:"steps"`
	Ops         int64            `json:"ops"`
	Errors      int64            `json:"errors"`
	Sheds       int64            `json:"sheds"`
	FilteredOps int64            `json:"filtered_ops"`
	Strategies  map[string]int64 `json:"strategies"`
}

// StepResult aggregates one ramp step. Latency percentiles cover
// successful requests only; Sheds counts 429 backpressure rejections
// (by design not errors); Strategies counts the per-response plan
// choice, with "cached" meaning the answer cache short-circuited the
// plan entirely.
type StepResult struct {
	Concurrency int              `json:"concurrency"`
	DurationS   float64          `json:"duration_s"`
	Ops         int64            `json:"ops"`
	Errors      int64            `json:"errors"`
	Sheds       int64            `json:"sheds"`
	FilteredOps int64            `json:"filtered_ops"`
	Inserts     int64            `json:"inserts"`
	QPS         float64          `json:"qps"`
	P50Micros   int64            `json:"p50_micros"`
	P95Micros   int64            `json:"p95_micros"`
	P99Micros   int64            `json:"p99_micros"`
	Strategies  map[string]int64 `json:"strategies"`
	Metrics     *MetricsDelta    `json:"metrics,omitempty"`
}

// MetricsDelta is the server-side view of one step, from /metrics
// scraped before and after: what the server admitted, shed, and spent.
type MetricsDelta struct {
	Requests       float64            `json:"requests"`
	Errors         float64            `json:"errors"`
	Sheds          float64            `json:"sheds"`
	ShedRate       float64            `json:"shed_rate"`
	Compdists      float64            `json:"compdists"`
	CompdistsPerOp float64            `json:"compdists_per_op"`
	CacheHits      float64            `json:"cache_hits"`
	PlanStrategies map[string]float64 `json:"plan_strategies"`
}

type workload struct {
	base   string
	client *http.Client
	pool   []json.RawMessage
	radius float64
	k      int

	filtered float64
	writes   float64
	knnFrac  float64
	zipfS    float64
	battery  []string
}

type localStats struct {
	lat         []time.Duration // successful request latencies
	ops         int64
	errors      int64
	sheds       int64
	filteredOps int64
	inserts     int64
	strategies  map[string]int64
}

func runStep(cfg workload, conc int, dur time.Duration, seed int64) StepResult {
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	start := time.Now()
	locals := make([]localStats, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(ctx, cfg, seed+int64(w), &locals[w])
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := StepResult{Concurrency: conc, DurationS: elapsed, Strategies: map[string]int64{}}
	var all []time.Duration
	for i := range locals {
		l := &locals[i]
		res.Ops += l.ops
		res.Errors += l.errors
		res.Sheds += l.sheds
		res.FilteredOps += l.filteredOps
		res.Inserts += l.inserts
		for s, n := range l.strategies {
			res.Strategies[s] += n
		}
		all = append(all, l.lat...)
	}
	res.QPS = float64(res.Ops) / elapsed
	p50, p95, p99 := exec.LatencyPercentiles(all)
	res.P50Micros, res.P95Micros, res.P99Micros = p50.Microseconds(), p95.Microseconds(), p99.Microseconds()
	return res
}

func worker(ctx context.Context, cfg workload, seed int64, st *localStats) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(cfg.pool)-1))
	st.strategies = map[string]int64{}
	for i := 0; ctx.Err() == nil; i++ {
		var (
			status   int
			strategy string
			err      error
		)
		begin := time.Now()
		switch {
		case rng.Float64() < cfg.writes:
			st.inserts++
			status, err = doInsert(ctx, cfg, rng, seed, i)
		default:
			q := cfg.pool[zipf.Uint64()]
			filter := ""
			if rng.Float64() < cfg.filtered {
				filter = cfg.battery[rng.Intn(len(cfg.battery))]
				st.filteredOps++
			}
			if rng.Float64() < cfg.knnFrac {
				status, strategy, err = doKNN(ctx, cfg, q, filter)
			} else {
				status, strategy, err = doRange(ctx, cfg, q, filter)
			}
		}
		st.ops++
		switch {
		case err != nil && ctx.Err() != nil:
			// The deadline tore down an in-flight request; not a failure.
			st.ops--
			return
		case err != nil:
			st.errors++
		case status == http.StatusTooManyRequests:
			st.sheds++
		case status != http.StatusOK:
			st.errors++
		default:
			st.lat = append(st.lat, time.Since(begin))
			if strategy != "" {
				st.strategies[strategy]++
			}
		}
	}
}

func doRange(ctx context.Context, cfg workload, q json.RawMessage, filter string) (int, string, error) {
	var resp server.RangeResponse
	status, err := post(ctx, cfg, "/v1/range", server.RangeRequest{Query: q, Radius: cfg.radius, Filter: filter}, &resp)
	return status, resp.Strategy, err
}

func doKNN(ctx context.Context, cfg workload, q json.RawMessage, filter string) (int, string, error) {
	var resp server.KNNResponse
	status, err := post(ctx, cfg, "/v1/knn", server.KNNRequest{Query: q, K: cfg.k, Filter: filter}, &resp)
	return status, resp.Strategy, err
}

func doInsert(ctx context.Context, cfg workload, rng *rand.Rand, seed int64, i int) (int, error) {
	obj := cfg.pool[rng.Intn(len(cfg.pool))]
	attrs := json.RawMessage(fmt.Sprintf(
		`{"category": "loadgen", "stock": %d, "price": %g}`, rng.Intn(100), 20*rng.Float64()+1))
	var resp server.InsertResponse
	return post(ctx, cfg, "/v1/insert", server.InsertRequest{Object: obj, Attrs: attrs}, &resp)
}

func post(ctx context.Context, cfg workload, path string, body, into any) (int, error) {
	enc, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.base+path, bytes.NewReader(enc))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, into); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// queryPool encodes the held-out query objects (falling back to live
// dataset objects) into wire form once, up front.
func queryPool(gen *dataset.Generated) []json.RawMessage {
	objs := gen.Queries
	if len(objs) == 0 {
		ds := gen.Dataset
		for _, id := range ds.LiveIDs() {
			objs = append(objs, ds.Object(id))
			if len(objs) == 1024 {
				break
			}
		}
	}
	pool := make([]json.RawMessage, 0, len(objs))
	for _, o := range objs {
		var enc []byte
		var err error
		switch v := o.(type) {
		case core.Word:
			enc, err = json.Marshal(string(v))
		default:
			enc, err = json.Marshal(v)
		}
		if err == nil {
			pool = append(pool, enc)
		}
	}
	return pool
}

// calibrateRadius picks a range radius from sampled pairwise distances:
// the 5th percentile, so range answers are selective but rarely empty.
func calibrateRadius(gen *dataset.Generated, seed int64) float64 {
	ds := gen.Dataset
	ids := ds.LiveIDs()
	if len(ids) < 2 {
		return 1
	}
	rng := rand.New(rand.NewSource(seed))
	n := 2000
	dists := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		if a == b {
			continue
		}
		dists = append(dists, ds.Distance(a, b))
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	return dists[len(dists)/20]
}

func parseRamp(s string) ([]int, error) {
	var steps []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("bad ramp step %q", part)
		}
		steps = append(steps, c)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("empty ramp")
	}
	return steps, nil
}

func parseFilters(s string) ([]string, error) {
	var battery []string
	for _, part := range strings.Split(s, ";") {
		if f := strings.TrimSpace(part); f != "" {
			battery = append(battery, f)
		}
	}
	if len(battery) == 0 {
		return nil, fmt.Errorf("empty filter battery")
	}
	return battery, nil
}

func waitHealthy(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("healthz did not turn OK within %s", timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// scrapeMetrics parses the Prometheus text exposition into a flat
// map keyed by "name{labels}" (or bare name).
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sumSeries adds every series of a metric across its label sets.
func sumSeries(m map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

func metricsDelta(prev, cur map[string]float64, ops int64) *MetricsDelta {
	d := &MetricsDelta{PlanStrategies: map[string]float64{}}
	delta := func(name string) float64 { return sumSeries(cur, name) - sumSeries(prev, name) }
	d.Requests = delta("mx_server_requests_total")
	d.Errors = delta("mx_server_errors_total")
	d.Sheds = delta("mx_server_sheds_total")
	d.Compdists = delta("mx_compdists_total")
	d.CacheHits = delta("mx_cache_hits_total")
	if admitted := d.Requests + d.Sheds; admitted > 0 {
		d.ShedRate = d.Sheds / admitted
	}
	if ops > 0 {
		d.CompdistsPerOp = d.Compdists / float64(ops)
	}
	for _, s := range []string{"pre", "probe", "post"} {
		key := fmt.Sprintf(`mx_plan_strategy_total{strategy="%s"}`, s)
		d.PlanStrategies[s] = cur[key] - prev[key]
	}
	return d
}
