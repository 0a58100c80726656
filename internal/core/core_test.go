package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.Float64()*200 - 100
	}
	return v
}

func randWord(rng *rand.Rand) Word {
	n := 1 + rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(6))
	}
	return Word(string(b))
}

// checkAxioms verifies the four metric properties on random triples.
func checkAxioms(t *testing.T, m Metric, gen func(*rand.Rand) Object) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const eps = 1e-9
	for trial := 0; trial < 300; trial++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if dab != dba {
			t.Fatalf("%s: symmetry violated: d(a,b)=%v d(b,a)=%v", m.Name(), dab, dba)
		}
		if dab < 0 {
			t.Fatalf("%s: negative distance %v", m.Name(), dab)
		}
		if d := m.Distance(a, a); d != 0 {
			t.Fatalf("%s: d(a,a)=%v", m.Name(), d)
		}
		dac, dcb := m.Distance(a, c), m.Distance(c, b)
		if dab > dac+dcb+eps {
			t.Fatalf("%s: triangle inequality violated: d(a,b)=%v > %v+%v", m.Name(), dab, dac, dcb)
		}
	}
}

func TestMetricAxioms(t *testing.T) {
	vec4 := func(rng *rand.Rand) Object { return randVec(rng, 4) }
	checkAxioms(t, L1{}, vec4)
	checkAxioms(t, L2{}, vec4)
	checkAxioms(t, LInf{}, vec4)
	checkAxioms(t, Lp{P: 3}, vec4)
	checkAxioms(t, Edit{}, func(rng *rand.Rand) Object { return randWord(rng) })
	checkAxioms(t, IntLInf{}, func(rng *rand.Rand) Object {
		v := make(IntVector, 3)
		for i := range v {
			v[i] = int32(rng.Intn(1000))
		}
		return v
	})
}

func TestEditDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"defoliate", "defoliates", 1},
		{"defoliate", "defoliation", 3},
		{"defoliate", "citrate", 6},
		{"flaw", "lawn", 2},
	}
	m := Edit{}
	for _, c := range cases {
		if got := m.Distance(Word(c.a), Word(c.b)); got != c.want {
			t.Errorf("edit(%q,%q)=%v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLpMatchesSpecialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a, b := randVec(rng, 5), randVec(rng, 5)
		if d1, dp := (L1{}).Distance(a, b), (Lp{P: 1}).Distance(a, b); math.Abs(d1-dp) > 1e-9 {
			t.Fatalf("Lp(1) %v != L1 %v", dp, d1)
		}
		if d2, dp := (L2{}).Distance(a, b), (Lp{P: 2}).Distance(a, b); math.Abs(d2-dp) > 1e-9 {
			t.Fatalf("Lp(2) %v != L2 %v", dp, d2)
		}
	}
}

func TestMetricDiscreteFlags(t *testing.T) {
	if (L2{}).Discrete() || (L1{}).Discrete() || (LInf{}).Discrete() {
		t.Fatal("float metrics must not be discrete")
	}
	if !(Edit{}).Discrete() || !(IntLInf{}).Discrete() {
		t.Fatal("edit and integer metrics must be discrete")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimensionality mismatch")
		}
	}()
	(L2{}).Distance(Vector{1, 2}, Vector{1, 2, 3})
}

func TestSpaceCountsDistances(t *testing.T) {
	s := NewSpace(L2{})
	a, b := Vector{0, 0}, Vector{3, 4}
	if d := s.Distance(a, b); d != 5 {
		t.Fatalf("d=%v", d)
	}
	s.Distance(a, b)
	if got := s.CompDists(); got != 2 {
		t.Fatalf("CompDists=%d, want 2", got)
	}
	s.ResetCompDists()
	if got := s.CompDists(); got != 0 {
		t.Fatalf("after reset CompDists=%d", got)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	ds := NewDataset(NewSpace(L2{}), []Object{Vector{0}, Vector{1}, Vector{2}})
	if ds.Count() != 3 || ds.Len() != 3 {
		t.Fatalf("Count=%d Len=%d", ds.Count(), ds.Len())
	}
	if err := ds.Delete(1); err != nil {
		t.Fatal(err)
	}
	if ds.Count() != 2 || ds.Live(1) {
		t.Fatal("delete not reflected")
	}
	if err := ds.Delete(1); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := ds.Delete(99); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
	// Insert reuses the freed slot.
	id := ds.Insert(Vector{7})
	if id != 1 {
		t.Fatalf("Insert reused slot %d, want 1", id)
	}
	if ds.Object(1).(Vector)[0] != 7 {
		t.Fatal("wrong object in reused slot")
	}
	ids := ds.LiveIDs()
	if len(ids) != 3 {
		t.Fatalf("LiveIDs=%v", ids)
	}
	if ds.Object(-1) != nil || ds.Object(1000) != nil {
		t.Fatal("out-of-range Object must be nil")
	}
}

func TestKNNHeapKeepsKBest(t *testing.T) {
	h := NewKNNHeap(3)
	if !math.IsInf(h.Radius(), 1) {
		t.Fatal("empty heap radius must be +Inf")
	}
	for i, d := range []float64{9, 2, 7, 1, 8, 3} {
		h.Push(i, d)
	}
	res := h.Result()
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	wantD := []float64{1, 2, 3}
	wantID := []int{3, 1, 5}
	for i := range res {
		if res[i].Dist != wantD[i] || res[i].ID != wantID[i] {
			t.Fatalf("result %d = %+v", i, res[i])
		}
	}
}

func TestKNNHeapTieBreaksByID(t *testing.T) {
	h := NewKNNHeap(2)
	h.Push(5, 1)
	h.Push(3, 1)
	h.Push(9, 1)
	res := h.Result()
	if res[0].ID != 3 || res[1].ID != 5 {
		t.Fatalf("tie-break wrong: %+v", res)
	}
}

func TestKNNHeapRadiusTightens(t *testing.T) {
	h := NewKNNHeap(2)
	h.Push(0, 10)
	h.Push(1, 20)
	if h.Radius() != 20 {
		t.Fatalf("radius=%v", h.Radius())
	}
	h.Push(2, 5)
	if h.Radius() != 10 {
		t.Fatalf("radius=%v after tightening", h.Radius())
	}
}

// TestKNNHeapOrderFree pushes one set of candidates — NaN, ±Inf, ties
// among them — in many orders at several k: the answer is the same for
// every order, holds no NaN distance, and equals the sorted candidates'
// first k that are numbers.
func TestKNNHeapOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	dists := []float64{3, math.NaN(), 1, math.Inf(1), 3, math.NaN(), math.Inf(-1), 3, 0, math.Inf(1), 2, math.NaN(), 1, math.Inf(1)}
	var want []Neighbor
	for id, d := range dists {
		if !math.IsNaN(d) {
			want = append(want, Neighbor{ID: id, Dist: d})
		}
	}
	SortNeighbors(want)
	order := make([]int, len(dists))
	for k := 0; k <= len(dists)+1; k++ {
		wantK := want[:min(k, len(want))]
		for perm := 0; perm < 300; perm++ {
			for i := range order {
				order[i] = i
			}
			if perm > 0 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			h := NewKNNHeap(k)
			for _, id := range order {
				h.Push(id, dists[id])
				if r := h.Radius(); math.IsNaN(r) {
					t.Fatalf("k %d order %v: radius NaN", k, order)
				}
			}
			got := h.Result()
			if len(got) != len(wantK) {
				t.Fatalf("k %d order %v: %d neighbours, want %d", k, order, len(got), len(wantK))
			}
			for i := range got {
				if got[i].ID != wantK[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(wantK[i].Dist) {
					t.Fatalf("k %d order %v: got %v, want %v", k, order, got, wantK)
				}
			}
		}
	}
}

// Property: Lemma 1 (PruneObject) never discards a true result, and
// Lemma 4 (ValidateObject) never admits a false one, for random
// configurations in a real metric space.
func TestFilterLemmasSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := L2{}
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + rng.Intn(4)
		q, o := randVec(rng, dim), randVec(rng, dim)
		nPivots := 1 + rng.Intn(4)
		qd := make([]float64, nPivots)
		od := make([]float64, nPivots)
		for i := 0; i < nPivots; i++ {
			p := randVec(rng, dim)
			qd[i] = m.Distance(q, p)
			od[i] = m.Distance(o, p)
		}
		d := m.Distance(q, o)
		r := rng.Float64() * 200
		if d <= r && PruneObject(qd, od, r) {
			t.Fatalf("Lemma 1 pruned a true result: d=%v r=%v", d, r)
		}
		if ValidateObject(qd, od, r) && d > r+1e-9 {
			t.Fatalf("Lemma 4 validated a non-result: d=%v r=%v", d, r)
		}
		if lb := PivotLowerBound(qd, od); lb > d+1e-9 {
			t.Fatalf("lower bound %v exceeds true distance %v", lb, d)
		}
	}
}

// Property: ball and hyperplane pruning are sound in a real metric space.
func TestPartitionLemmasSound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := L2{}
	for trial := 0; trial < 2000; trial++ {
		dim := 2
		q := randVec(rng, dim)
		pi, pj := randVec(rng, dim), randVec(rng, dim)
		o := randVec(rng, dim)
		r := rng.Float64() * 100
		d := m.Distance(q, o)

		// Lemma 2: o inside ball(pi, rad).
		rad := m.Distance(o, pi) + rng.Float64()*10
		if PruneBall(m.Distance(q, pi), rad, r) && d <= r {
			t.Fatalf("Lemma 2 pruned a true result")
		}
		if bm := BallMinDist(m.Distance(q, pi), rad); bm > d+1e-9 {
			t.Fatalf("ball min-dist %v exceeds %v", bm, d)
		}

		// Lemma 3: o in pi's hyperplane partition (d(o,pi) <= d(o,pj)).
		if m.Distance(o, pi) <= m.Distance(o, pj) {
			dqi, dqj := m.Distance(q, pi), m.Distance(q, pj)
			dqmin := math.Min(dqi, dqj)
			if PruneHyperplane(dqi, dqmin, r) && d <= r {
				t.Fatalf("Lemma 3 pruned a true result")
			}
		}
	}
}

func TestMBBOperations(t *testing.T) {
	m := NewMBB(2)
	if !m.Empty() {
		t.Fatal("new MBB must be empty")
	}
	if !m.PruneMBB([]float64{1, 1}, 100) {
		t.Fatal("empty MBB must always prune")
	}
	m.Extend([]float64{1, 5})
	m.Extend([]float64{3, 2})
	if m.Empty() {
		t.Fatal("extended MBB not empty")
	}
	if m.Lo[0] != 1 || m.Hi[0] != 3 || m.Lo[1] != 2 || m.Hi[1] != 5 {
		t.Fatalf("bounds %v %v", m.Lo, m.Hi)
	}
	if m.PruneMBB([]float64{2, 3}, 0) {
		t.Fatal("query inside box must not prune")
	}
	if !m.PruneMBB([]float64{10, 3}, 1) {
		t.Fatal("query far outside must prune")
	}
	if d := m.MinDist([]float64{2, 3}); d != 0 {
		t.Fatalf("inside MinDist=%v", d)
	}
	if d := m.MinDist([]float64{5, 3}); d != 2 {
		t.Fatalf("outside MinDist=%v", d)
	}
}

func TestBruteForceAgreement(t *testing.T) {
	// quick property: BruteForceKNN's k-th distance defines exactly the
	// radius at which BruteForceRange returns >= k results.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		objs := make([]Object, 50)
		for i := range objs {
			objs[i] = randVec(rng, 3)
		}
		ds := NewDataset(NewSpace(L2{}), objs)
		q := randVec(rng, 3)
		nns := BruteForceKNN(ds, q, 5)
		r := nns[len(nns)-1].Dist
		ids := BruteForceRange(ds, q, r)
		return len(ids) >= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSortNeighborsDeterministic(t *testing.T) {
	ns := []Neighbor{{ID: 3, Dist: 1}, {ID: 1, Dist: 1}, {ID: 2, Dist: 0.5}}
	SortNeighbors(ns)
	if ns[0].ID != 2 || ns[1].ID != 1 || ns[2].ID != 3 {
		t.Fatalf("order: %+v", ns)
	}
}
