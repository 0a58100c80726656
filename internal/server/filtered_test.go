package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/plan"
)

// filterBattery targets the bags dataset.AttachAttrs writes and spans the
// planner's range: on LAESA the rarest predicates (tail category, price
// tail) plan kNN as pre and range as probe, mid-selectivity ones as
// probe, broad ones as post.
var filterBattery = []string{
	`stock < 25`,
	`stock < 90`,
	`category = "kappa" AND stock < 50`,
	`price > 200`,
	`price < 10 OR tags = "sale"`,
	`category IN ("alpha", "beta") AND stock >= 50`,
}

// TestFilteredWorkloadOverHTTP is the end-to-end proof of the filtered
// stack under concurrency: a cached, probe-capable (LAESA) server takes
// the battery from eight clients at once and must finish with zero
// errors, every answer equal to filter-then-scan, all three planner
// strategies chosen, and the response strategies equal to the
// mx_plan_strategy_total deltas (a "cached" answer counts on none).
func TestFilteredWorkloadOverHTTP(t *testing.T) {
	gen, err := dataset.Generate(dataset.LA, dataset.Config{N: 2000, Queries: 24, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AttachAttrs(gen, 43); err != nil {
		t.Fatal(err)
	}
	idx, err := laesaBuilder(gen.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	live := epoch.NewLive(gen.Dataset, idx)
	srv, err := New(live, Options{Cache: &cache.Options{MaxBytes: 8 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	preds := make([]*plan.Predicate, len(filterBattery))
	for i, f := range filterBattery {
		if preds[i], err = plan.Parse(f); err != nil {
			t.Fatal(err)
		}
	}
	radius := dataset.CalibrateRadius(gen, 0.05)
	const k, clients, opsPerClient = 10, 8, 60
	m := gen.Dataset.Space().Metric()

	// one issues a filtered query and checks the answer against the
	// specification: evaluate the predicate on every live bag, compute
	// distances only for matches. Nothing writes, so the scan is stable.
	one := func(q core.Object, fi int, knn bool) (string, error) {
		path, body := "/v1/range", map[string]any{"query": q, "radius": radius, "filter": filterBattery[fi]}
		if knn {
			path, body = "/v1/knn", map[string]any{"query": q, "k": k, "filter": filterBattery[fi]}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return "", err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("%s %s: status %d", path, filterBattery[fi], resp.StatusCode)
		}
		var got struct {
			IDs       []int
			Neighbors []Neighbor
			Strategy  string
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			return "", err
		}
		var wantIDs []int
		heap := core.NewKNNHeap(k)
		for _, id := range gen.Dataset.LiveIDs() {
			if !preds[fi].Eval(gen.Dataset.Attrs(id)) {
				continue
			}
			d := m.Distance(q, gen.Dataset.Object(id))
			heap.Push(id, d)
			if d <= radius {
				wantIDs = append(wantIDs, id)
			}
		}
		if knn && !reflect.DeepEqual(got.Neighbors, toWire(heap.Result())) {
			return "", fmt.Errorf("knn %s: served %v, filter-then-scan %v", filterBattery[fi], got.Neighbors, heap.Result())
		}
		if !knn && !reflect.DeepEqual(got.IDs, normIDs(wantIDs)) {
			return "", fmt.Errorf("range %s: served %v, filter-then-scan %v", filterBattery[fi], got.IDs, wantIDs)
		}
		return got.Strategy, nil
	}

	before := srv.Obs().Snapshot()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		served = map[string]float64{}
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < opsPerClient; i++ {
				strategy, err := one(gen.Queries[rng.Intn(len(gen.Queries))], rng.Intn(len(filterBattery)), i%2 == 0)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				served[strategy]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	after := srv.Obs().Snapshot()
	for _, s := range []string{"pre", "probe", "post"} {
		key := fmt.Sprintf(`mx_plan_strategy_total{strategy="%s"}`, s)
		if served[s] == 0 || served[s] != after[key]-before[key] {
			t.Errorf("strategy %s: %v responses, counter moved %v (want equal and nonzero); all responses: %v",
				s, served[s], after[key]-before[key], served)
		}
	}
}
