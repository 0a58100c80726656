package metricindex_test

// Public-API tests for the serving layer: the Live epoch-synchronized
// index front and the HTTP server around it.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"metricindex"
)

func laesaRebuild(ds *metricindex.Dataset) (metricindex.Index, error) {
	pv, err := metricindex.SelectPivots(ds, 4, 3)
	if err != nil {
		return nil, err
	}
	return metricindex.NewLAESA(ds, pv)
}

// TestLivePublicAPI drives concurrent searches, updates and a graceful
// swap through the public surface.
func TestLivePublicAPI(t *testing.T) {
	gen, err := metricindex.GenerateDataset(metricindex.DatasetLA, 400, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := laesaRebuild(gen.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	live := metricindex.NewLive(gen.Dataset, idx)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := live.KNNSearch(gen.Queries[i%len(gen.Queries)], 5); err != nil {
					t.Errorf("KNNSearch: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := live.RemoveAt(i); err != nil {
			t.Fatalf("Remove(%d): %v", i, err)
		}
		if _, _, err := live.AddAttrsAt(metricindex.Vector{float64(i), 0}, nil); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := live.Swap(laesaRebuild); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	wg.Wait()
	if live.Epoch() != 41 {
		t.Fatalf("epoch = %d, want 40 updates + 1 swap", live.Epoch())
	}

	// Post-swap answers equal brute force on the current dataset.
	live.View(func(ds *metricindex.Dataset, idx metricindex.Index) {
		q := gen.Queries[0]
		want := metricindex.BruteForceRange(ds, q, 30)
		got, err := idx.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("post-swap MRQ mismatch: got %d ids, want %d", len(got), len(want))
		}
	})
}

// TestServerPublicAPI boots the HTTP layer through NewServer and
// round-trips a query and the stats endpoint.
func TestServerPublicAPI(t *testing.T) {
	gen, err := metricindex.GenerateDataset(metricindex.DatasetWords, 300, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := laesaRebuild(gen.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	live := metricindex.NewLive(gen.Dataset, idx)
	srv, err := metricindex.NewServer(live, metricindex.ServerOptions{Builder: laesaRebuild})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"query": gen.Queries[0], "k": 5})
	resp, err := http.Post(ts.URL+"/v1/knn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var kr struct {
		Neighbors []struct {
			ID   int     `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want, err := live.KNNSearch(gen.Queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(kr.Neighbors) != len(want) {
		t.Fatalf("server returned %d neighbors, direct call %d", len(kr.Neighbors), len(want))
	}
	for i := range want {
		if kr.Neighbors[i].ID != want[i].ID || kr.Neighbors[i].Dist != want[i].Dist {
			t.Fatalf("neighbor %d differs: got %+v want %+v", i, kr.Neighbors[i], want[i])
		}
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st metricindex.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Index.Name != "LAESA" || st.Endpoints["knn"].Count != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCachedLivePublicAPI drives the answer cache through the public
// surface: NewLive with CacheOptions, hit equivalence, zero compdists
// on hits, epoch invalidation on write, and CacheStats accounting.
func TestCachedLivePublicAPI(t *testing.T) {
	gen, err := metricindex.GenerateDataset(metricindex.DatasetLA, 500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Dataset
	idx, err := laesaRebuild(ds)
	if err != nil {
		t.Fatal(err)
	}
	live := metricindex.NewLive(ds, idx, metricindex.CacheOptions{MaxBytes: 4 << 20})

	q := gen.Queries[0]
	cold, err := live.KNNSearch(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	ds.Space().ResetCompDists()
	hot, err := live.KNNSearch(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := ds.Space().CompDists(); n != 0 {
		t.Fatalf("hit computed %d distances", n)
	}
	if len(hot) != len(cold) {
		t.Fatalf("hit %d neighbors, fresh %d", len(hot), len(cold))
	}
	for i := range hot {
		if hot[i] != cold[i] {
			t.Fatalf("neighbor %d: hit %+v, fresh %+v", i, hot[i], cold[i])
		}
	}

	// A write invalidates; the inserted object must be served.
	id, _, err := live.AddAttrsAt(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	post, err := live.KNNSearch(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if post[0].ID != id || post[0].Dist != 0 {
		t.Fatalf("post-insert nearest %+v, want %d at 0", post[0], id)
	}

	st, ok := live.CacheStats()
	if !ok || st.Hits == 0 || st.Misses == 0 || st.HitRate() <= 0 {
		t.Fatalf("cache stats malformed: ok=%v %+v", ok, st)
	}

	// Without CacheOptions there is no cache.
	plain := metricindex.NewLive(ds, idx)
	if _, ok := plain.CacheStats(); ok {
		t.Fatal("uncached Live reported cache stats")
	}
}
