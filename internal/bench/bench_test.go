package bench

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/persist"
	"metricindex/internal/testutil"
)

func tinyCfg(kinds ...dataset.Kind) Config {
	if len(kinds) == 0 {
		kinds = []dataset.Kind{dataset.Words}
	}
	return Config{N: 600, Queries: 3, Pivots: 4, Seed: 7, Datasets: kinds}
}

func TestEnvSetup(t *testing.T) {
	e, err := NewEnv(dataset.LA, tinyCfg(dataset.LA))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Pivots) != 4 {
		t.Fatalf("pivots: %v", e.Pivots)
	}
	if e.Gen.Dataset.Space().Metric().Discrete() {
		t.Fatal("LA must be continuous")
	}
	r1, r2 := e.Radius(0.04), e.Radius(0.32)
	if r1 >= r2 {
		t.Fatalf("radii not monotone: %v %v", r1, r2)
	}
}

// paperKinds is the lineup of Tables 4 and 6, in their row order.
var paperKinds = []string{
	"LAESA", "EPT", "EPT*", "CPT", "BKT", "FQT", "MVPT",
	"PM-tree", "OmniR-tree", "M-index", "M-index*", "SPB-tree",
}

// TestRegistryFamilies drives every registry entry on a small Words and a
// small LA environment: the kind builds (or, where it needs a discrete
// metric, fails with core.ErrNotDiscrete), answers like a linear scan
// before and after a delete/reinsert churn, and round-trips through a
// snapshot with the same answers. The registry's kinds are persist's.
func TestRegistryFamilies(t *testing.T) {
	var names []string
	for _, b := range Builders() {
		names = append(names, b.Name)
	}
	want := persist.Kinds()
	if slices.Sort(names); !slices.Equal(names, slices.Sorted(slices.Values(want))) {
		t.Fatalf("registry kinds %v, want persist's %v", names, want)
	}
	if _, err := BuilderByName("nope"); err == nil || !strings.Contains(err.Error(), "SPB-tree") {
		t.Fatalf("unknown kind: error %v, want one listing the registry", err)
	}
	for _, kind := range []dataset.Kind{dataset.Words, dataset.LA} {
		for _, b := range Builders() {
			t.Run(b.Name+"/"+string(kind), func(t *testing.T) {
				e, err := NewEnv(kind, tinyCfg(kind))
				if err != nil {
					t.Fatal(err)
				}
				built, err := Build(e, b)
				needsDiscrete := b.Name == "BKT" || b.Name == "FQT" || b.Name == "FQA"
				if kind == dataset.LA && needsDiscrete {
					if !errors.Is(err, core.ErrNotDiscrete) {
						t.Fatalf("built on a continuous metric: error %v, want core.ErrNotDiscrete", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if built.Index.Name() != b.Name || (b.Pages == InMemory) != (len(built.Pagers) == 0) {
					t.Fatalf("built %q on %d pagers", built.Index.Name(), len(built.Pagers))
				}
				check := func(stage string, idx core.Index, ds *core.Dataset) {
					t.Helper()
					for _, q := range e.Gen.Queries {
						testutil.CheckRange(t, idx, ds, q, e.Radius(0.08))
						testutil.CheckKNN(t, idx, ds, q, 5)
					}
					if t.Failed() {
						t.Fatalf("%s: answers differ from a linear scan", stage)
					}
				}
				check("fresh", built.Index, e.Gen.Dataset)
				if _, err := MeasureUpdate(e, built, 30); err != nil {
					t.Fatal(err)
				}
				check("after churn", built.Index, e.Gen.Dataset)
				data, err := persist.Encode(e.Gen.Dataset, built.Index, 1)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := persist.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				if snap.Index.Name() != b.Name {
					t.Fatalf("restored %q", snap.Index.Name())
				}
				check("restored", snap.Index, snap.Dataset)
			})
		}
	}
}

func TestMeasureBuildAndQueries(t *testing.T) {
	e, err := NewEnv(dataset.Words, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, cost, err := MeasureBuild(e, mustBuilder(t, "SPB-tree"))
	if err != nil {
		t.Fatal(err)
	}
	if cost.CompDists <= 0 || cost.DiskBytes <= 0 {
		t.Fatalf("implausible build cost: %+v", cost)
	}
	rc, err := MeasureRange(e, b, e.Radius(0.16))
	if err != nil {
		t.Fatal(err)
	}
	if rc.CompDists <= 0 || rc.PA <= 0 {
		t.Fatalf("implausible range cost: %+v", rc)
	}
	kc, err := MeasureKNN(e, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if kc.CompDists <= 0 {
		t.Fatalf("implausible knn cost: %+v", kc)
	}
	uc, err := MeasureUpdate(e, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if uc.CompDists <= 0 {
		t.Fatalf("implausible update cost: %+v", uc)
	}
}

func mustBuilder(t *testing.T, name string) Builder {
	t.Helper()
	b, err := BuilderByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Every experiment must run end to end at tiny scale and produce output
// mentioning each lineup index.
func TestExperimentsRunEndToEnd(t *testing.T) {
	runs := []struct {
		name string
		fn   func(io.Writer, Config) error
		cfg  Config
	}{
		{"table4", Table4, tinyCfg()},
		{"table6", Table6, tinyCfg()},
		{"fig14", Fig14, tinyCfg(dataset.LA)},
		{"fig15", Fig15, tinyCfg(dataset.LA)},
		{"fig16", Fig16, tinyCfg()},
		{"fig17", Fig17, tinyCfg()},
		{"fig18", Fig18, tinyCfg(dataset.LA)},
		{"ablation-pivots", AblationPivotSelection, tinyCfg(dataset.LA)},
		{"ablation-arity", AblationMVPTArity, tinyCfg(dataset.LA)},
		{"ablation-sfc", AblationSFC, tinyCfg(dataset.LA)},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := r.fn(&buf, r.cfg); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			out := buf.String()
			if len(out) < 100 {
				t.Fatalf("%s produced almost no output:\n%s", r.name, out)
			}
			if r.name == "table4" || r.name == "table6" {
				// AESA and the other non-paper kinds never land here:
				// at the default n = 20 000, AESA is an n² table.
				var rows []string
				for _, line := range strings.Split(out, "\n") {
					if f := strings.Fields(line); len(f) > 0 && f[0] != "==" && f[0] != "index" {
						rows = append(rows, f[0])
					}
				}
				if !slices.Equal(rows, paperKinds) {
					t.Fatalf("%s rows %v, want %v", r.name, rows, paperKinds)
				}
			}
		})
	}
}

// Fig 18's core claim: compdists decreases as |P| grows.
func TestMoreBPivotsFewerCompdists(t *testing.T) {
	cost := func(np int) float64 {
		cfg := tinyCfg(dataset.LA)
		cfg.N = 1500
		cfg.Pivots = np
		e, err := NewEnv(dataset.LA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := MeasureBuild(e, mustBuilder(t, "LAESA"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := MeasureKNN(e, b, 20)
		if err != nil {
			t.Fatal(err)
		}
		return c.CompDists
	}
	if c1, c9 := cost(1), cost(9); c9 >= c1 {
		t.Fatalf("|P|=9 compdists (%v) should beat |P|=1 (%v)", c9, c1)
	}
}

// TestShardedConfigMatchesUnsharded drives the Config.Shards wiring end to
// end: MeasureBuild must transparently produce a sharded index whose
// query answers equal the unsharded build's, across a table, a tree, and
// a disk index.
func TestShardedConfigMatchesUnsharded(t *testing.T) {
	// EPT rides along for its Radius() path: per-shard calibration runs
	// over a sparse mirror, which used to panic on stride aliasing.
	for _, name := range []string{"LAESA", "MVPT", "SPB-tree", "EPT"} {
		t.Run(name, func(t *testing.T) {
			builder, err := BuilderByName(name)
			if err != nil {
				t.Fatal(err)
			}
			flatEnv, err := NewEnv(dataset.LA, tinyCfg(dataset.LA))
			if err != nil {
				t.Fatal(err)
			}
			flat, _, err := MeasureBuild(flatEnv, builder)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyCfg(dataset.LA)
			cfg.Shards = 3
			shEnv, err := NewEnv(dataset.LA, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sharded, _, err := MeasureBuild(shEnv, builder)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sharded.Index.Name(), "Sharded") {
				t.Fatalf("Config.Shards=3 built %q, want a sharded index", sharded.Index.Name())
			}
			r := flatEnv.Radius(0.1)
			for qi, q := range flatEnv.Gen.Queries {
				want, err := flat.Index.RangeSearch(q, r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sharded.Index.RangeSearch(shEnv.Gen.Queries[qi], r)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d: sharded MRQ %d ids, unsharded %d", qi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("query %d: sharded MRQ differs at %d: %d vs %d", qi, i, got[i], want[i])
					}
				}
				wantNN, err := flat.Index.KNNSearch(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				gotNN, err := sharded.Index.KNNSearch(shEnv.Gen.Queries[qi], 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotNN) != len(wantNN) {
					t.Fatalf("query %d: sharded MkNNQ %d, unsharded %d", qi, len(gotNN), len(wantNN))
				}
				for i := range gotNN {
					if gotNN[i] != wantNN[i] {
						t.Fatalf("query %d: sharded MkNNQ differs at %d: %v vs %v", qi, i, gotNN[i], wantNN[i])
					}
				}
			}
			// The measurement paths must work over the sharded build too
			// (cache control fans out to every shard pager).
			if _, err := MeasureKNN(shEnv, sharded, 5); err != nil {
				t.Fatalf("MeasureKNN over sharded: %v", err)
			}
			if _, err := MeasureRange(shEnv, sharded, r); err != nil {
				t.Fatalf("MeasureRange over sharded: %v", err)
			}
		})
	}
}
