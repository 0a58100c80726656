package dataset

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"metricindex/internal/core"
)

func TestGenerateAllKinds(t *testing.T) {
	for _, kind := range AllKinds {
		g, err := Generate(kind, Config{N: 500, Queries: 10, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.Dataset.Count() != 500 {
			t.Fatalf("%s: count=%d", kind, g.Dataset.Count())
		}
		if len(g.Queries) != 10 {
			t.Fatalf("%s: queries=%d", kind, len(g.Queries))
		}
		if g.MaxDistance <= 0 {
			t.Fatalf("%s: d+=%v", kind, g.MaxDistance)
		}
		// Every pairwise sample must respect the estimated d+ (it is
		// padded, so strictly larger samples indicate a bug).
		m := g.Dataset.Space().Metric()
		objs := g.Dataset.Objects()
		for i := 0; i < 200; i++ {
			d := m.Distance(objs[i], objs[(i*7+3)%500])
			if d > g.MaxDistance {
				t.Fatalf("%s: sampled distance %v exceeds d+ %v", kind, d, g.MaxDistance)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(LA, Config{N: 100, Queries: 2, Seed: 9})
	b, _ := Generate(LA, Config{N: 100, Queries: 2, Seed: 9})
	m := a.Dataset.Space().Metric()
	for i := 0; i < 100; i++ {
		if m.Distance(a.Dataset.Object(i), b.Dataset.Object(i)) != 0 {
			t.Fatalf("object %d differs across identical seeds", i)
		}
	}
	c, _ := Generate(LA, Config{N: 100, Queries: 2, Seed: 10})
	same := 0
	for i := 0; i < 100; i++ {
		if m.Distance(a.Dataset.Object(i), c.Dataset.Object(i)) == 0 {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("different seeds produced %d identical objects", same)
	}
}

func TestGenerateShapes(t *testing.T) {
	la, _ := Generate(LA, Config{N: 50, Queries: 1, Seed: 1})
	if v := la.Dataset.Object(0).(core.Vector); len(v) != 2 {
		t.Fatalf("LA dim=%d", len(v))
	}
	color, _ := Generate(Color, Config{N: 20, Queries: 1, Seed: 1})
	if v := color.Dataset.Object(0).(core.Vector); len(v) != 282 {
		t.Fatalf("Color dim=%d", len(v))
	}
	for _, x := range color.Dataset.Object(0).(core.Vector) {
		if x < -255 || x > 255 {
			t.Fatalf("Color value %v outside [-255,255]", x)
		}
	}
	syn, _ := Generate(Synthetic, Config{N: 50, Queries: 1, Seed: 1})
	v := syn.Dataset.Object(0).(core.IntVector)
	if len(v) != 20 {
		t.Fatalf("Synthetic dim=%d", len(v))
	}
	for _, x := range v {
		if x < 0 || x > 10000 {
			t.Fatalf("Synthetic value %d outside [0,10000]", x)
		}
	}
	words, _ := Generate(Words, Config{N: 200, Queries: 1, Seed: 1})
	for _, id := range words.Dataset.LiveIDs() {
		w := string(words.Dataset.Object(id).(core.Word))
		if len(w) < 1 || len(w) > 34 {
			t.Fatalf("word length %d outside 1..34", len(w))
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("Bogus", Config{N: 10}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if _, err := Generate(LA, Config{N: 0}); err == nil {
		t.Fatal("N=0 must fail")
	}
	if _, err := Generate(LA, Config{N: 5, Queries: -1}); err == nil {
		t.Fatal("negative queries must fail")
	}
}

func TestCalibrateRadiusMonotone(t *testing.T) {
	g, _ := Generate(LA, Config{N: 2000, Queries: 8, Seed: 3})
	r4 := CalibrateRadius(g, 0.04)
	r16 := CalibrateRadius(g, 0.16)
	r64 := CalibrateRadius(g, 0.64)
	if !(r4 < r16 && r16 < r64) {
		t.Fatalf("radii not monotone: %v %v %v", r4, r16, r64)
	}
	// The 16% radius must actually return roughly 16% of the dataset.
	got := len(core.BruteForceRange(g.Dataset, g.Queries[0], r16))
	frac := float64(got) / float64(g.Dataset.Count())
	if frac < 0.02 || frac > 0.6 {
		t.Fatalf("16%% radius returned %.1f%% of objects", frac*100)
	}
}

func TestIntrinsicDimensionalityOrdering(t *testing.T) {
	words, _ := Generate(Words, Config{N: 1500, Queries: 1, Seed: 5})
	la, _ := Generate(LA, Config{N: 1500, Queries: 1, Seed: 5})
	wID := IntrinsicDimensionality(words)
	laID := IntrinsicDimensionality(la)
	// Table 2: Words has by far the lowest intrinsic dimensionality.
	if wID >= laID {
		t.Fatalf("Words intrinsic dim %.2f should be below LA %.2f", wID, laID)
	}
}

// TestIntrinsicDimensionalityGenerators pins each generator's ρ at
// n = 20 000 (seed 42) within ±15 % of the values measured when this
// test was written, and their order: Words < LA < Color < Synthetic, as
// in Table 2. LA's 2.0 is a known divergence from the paper's 5.4: the
// generator clusters its 2-D points more tightly than the real
// Los Angeles set. The test pins it rather than retuning the generator.
func TestIntrinsicDimensionalityGenerators(t *testing.T) {
	want := map[Kind]float64{LA: 2.00, Words: 0.95, Color: 5.58, Synthetic: 6.65}
	got := map[Kind]float64{}
	for _, kind := range AllKinds {
		g, err := Generate(kind, Config{N: 20000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		got[kind] = IntrinsicDimensionality(g)
		if rho := got[kind]; !(rho >= 0.85*want[kind] && rho <= 1.15*want[kind]) {
			t.Errorf("%s: ρ = %.3f, want %.2f ± 15 %%", kind, rho, want[kind])
		}
	}
	if !(got[Words] < got[LA] && got[LA] < got[Color] && got[Color] < got[Synthetic]) {
		t.Errorf("ρ out of Table 2's order: %v", got)
	}
}

// TestIntrinsicDimensionalityWithHoles samples a dataset with deleted
// objects over its live ones (drawing over every slot met a nil object
// and panicked), and gives +Inf below two live objects.
func TestIntrinsicDimensionalityWithHoles(t *testing.T) {
	g, err := Generate(LA, Config{N: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for id := range 40 {
		if err := g.Dataset.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if rho := IntrinsicDimensionality(g); math.IsInf(rho, 0) || math.IsNaN(rho) || rho <= 0 {
		t.Fatalf("ρ over 10 live objects = %v, want a positive finite estimate", rho)
	}
	for id := 40; id < 49; id++ {
		if err := g.Dataset.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if rho := IntrinsicDimensionality(g); !math.IsInf(rho, 1) {
		t.Fatalf("ρ over one live object = %v, want +Inf", rho)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range AllKinds {
		g, err := Generate(kind, Config{N: 120, Queries: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, string(kind)+".midx")
		if err := Save(path, g); err != nil {
			t.Fatalf("Save(%s): %v", kind, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", kind, err)
		}
		if got.Kind != kind || got.Dataset.Count() != 120 || len(got.Queries) != 5 {
			t.Fatalf("%s: loaded %s/%d/%d", kind, got.Kind, got.Dataset.Count(), len(got.Queries))
		}
		if got.MaxDistance != g.MaxDistance {
			t.Fatalf("%s: d+ %v != %v", kind, got.MaxDistance, g.MaxDistance)
		}
		m := g.Dataset.Space().Metric()
		for i := 0; i < 120; i++ {
			if m.Distance(g.Dataset.Object(i), got.Dataset.Object(i)) != 0 {
				t.Fatalf("%s: object %d changed in round trip", kind, i)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.midx")
	os.WriteFile(bad, []byte("not a midx file"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := Load(filepath.Join(dir, "missing.midx")); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestCalibrateRadiusSparseDataset is the regression test for the slot
// stride aliasing onto deleted slots: with two of every three ids empty
// (a shard mirror's shape), calibration used to sample zero distances and
// panic indexing into an empty slice.
func TestCalibrateRadiusSparseDataset(t *testing.T) {
	g, err := Generate(LA, Config{N: 1500, Queries: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 1500; id++ {
		if id%3 != 1 {
			if err := g.Dataset.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	r1, r2 := CalibrateRadius(g, 0.04), CalibrateRadius(g, 0.5)
	if r1 <= 0 || r2 <= r1 {
		t.Fatalf("sparse calibration not monotone positive: %v, %v", r1, r2)
	}
	// No queries: probes fall back to live objects, never nil slots.
	g.Queries = nil
	if r := CalibrateRadius(g, 0.1); r <= 0 {
		t.Fatalf("query-less sparse calibration returned %v", r)
	}
}

// TestSaveLoadAttrsRoundTrip covers the MIDX2 attrs section: generated
// bags must survive the file byte-for-bag, and a file without bags must
// still carry the MIDX1 magic so older tools keep reading it.
func TestSaveLoadAttrsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, err := Generate(LA, Config{N: 200, Queries: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachAttrs(g, 99); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "attrs.midx")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:5]) != "MIDX2" {
		t.Fatalf("attrs dataset saved with magic %q, want MIDX2", raw[:5])
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	withAttrs := 0
	for _, id := range g.Dataset.LiveIDs() {
		want := g.Dataset.Attrs(id)
		if len(want) > 0 {
			withAttrs++
		}
		if !got.Dataset.Attrs(id).Equal(want) {
			t.Fatalf("attrs of %d changed in round trip: %v != %v", id, got.Dataset.Attrs(id), want)
		}
	}
	if withAttrs == 0 {
		t.Fatal("AttachAttrs left every object bare")
	}

	// Attribute-less datasets must keep the v1 magic.
	plain, err := Generate(LA, Config{N: 50, Queries: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plainPath := filepath.Join(dir, "plain.midx")
	if err := Save(plainPath, plain); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:5]) != "MIDX1" {
		t.Fatalf("plain dataset saved with magic %q, want MIDX1", raw[:5])
	}
}

// TestAttachAttrsDeterministic: same seed, same bags.
func TestAttachAttrsDeterministic(t *testing.T) {
	a, _ := Generate(Words, Config{N: 80, Queries: 1, Seed: 3})
	b, _ := Generate(Words, Config{N: 80, Queries: 1, Seed: 3})
	if err := AttachAttrs(a, 7); err != nil {
		t.Fatal(err)
	}
	if err := AttachAttrs(b, 7); err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Dataset.LiveIDs() {
		if !a.Dataset.Attrs(id).Equal(b.Dataset.Attrs(id)) {
			t.Fatalf("attrs of %d differ across identical seeds", id)
		}
	}
}
