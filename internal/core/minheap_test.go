package core_test

import (
	"cmp"
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// refHeap is the reference model of core.MinHeap with every tie 0: the
// container/heap queue, ordered by bound alone, that the best-first
// traversals ran on before MinHeap.
type refHeap []core.Ranked[int]

func (p refHeap) Len() int           { return len(p) }
func (p refHeap) Less(i, j int) bool { return p[i].LB < p[j].LB }
func (p refHeap) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refHeap) Push(x any)        { *p = append(*p, x.(core.Ranked[int])) }
func (p *refHeap) Pop() any {
	old := *p
	e := old[len(old)-1]
	*p = old[:len(old)-1]
	return e
}

// tiedBound draws a bound from a few values, so most bounds tie, with NaN
// and ±Inf among them.
func tiedBound(rng *rand.Rand) float64 {
	switch rng.Intn(20) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	}
	return float64(rng.Intn(6))
}

// TestMinHeapPopsAsContainerHeap: with every tie 0, MinHeap pops exactly
// what container/heap pops, entry for entry, over random interleavings of
// pushes and pops — bounds tying heavily, NaN and ±Inf among them — and
// PopWithin refuses exactly when the reference's least bound exceeds the
// limit. Disk traversals read pages in this order, so their page accesses
// depend on it.
func TestMinHeapPopsAsContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for round := 0; round < 300; round++ {
		var h core.MinHeap[int]
		ref := &refHeap{}
		next := 0
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 {
				lb := tiedBound(rng)
				h.Push(lb, 0, next)
				heap.Push(ref, core.Ranked[int]{LB: lb, V: next})
				next++
				continue
			}
			limit := math.Inf(1)
			if rng.Intn(2) == 0 {
				limit = tiedBound(rng)
			}
			got, ok := h.PopWithin(limit)
			want := ref.Len() > 0 && !((*ref)[0].LB > limit)
			if ok != want {
				t.Fatalf("round %d op %d: PopWithin(%v) reported %v, reference %v", round, op, limit, ok, want)
			}
			if ok {
				if e := heap.Pop(ref).(core.Ranked[int]); got.V != e.V {
					t.Fatalf("round %d op %d: popped entry %d (bound %v), reference %d (bound %v)", round, op, got.V, got.LB, e.V, e.LB)
				}
			}
			if h.Len() != ref.Len() {
				t.Fatalf("round %d op %d: Len %d, reference %d", round, op, h.Len(), ref.Len())
			}
		}
	}
}

// TestMinHeapOrdersByBoundThenTie: with distinct ties, every pop is the
// least entry left by (bound, tie), over random interleavings of pushes and
// pops with heavily tied bounds and ±Inf; drained, the heap yields the sort
// of what it holds.
func TestMinHeapOrdersByBoundThenTie(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	order := func(a, b core.Ranked[int]) int {
		return cmp.Or(cmp.Compare(a.LB, b.LB), cmp.Compare(a.Tie, b.Tie))
	}
	for round := 0; round < 300; round++ {
		var h core.MinHeap[int]
		var model []core.Ranked[int]
		ties := rng.Perm(400)
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 {
				lb := float64(rng.Intn(6))
				if rng.Intn(10) == 0 {
					lb = math.Inf(2*rng.Intn(2) - 1)
				}
				e := core.Ranked[int]{LB: lb, Tie: uint32(ties[op]), V: op}
				h.Push(e.LB, e.Tie, e.V)
				model = append(model, e)
				continue
			}
			got, ok := h.PopWithin(math.Inf(1))
			if ok != (len(model) > 0) {
				t.Fatalf("round %d op %d: PopWithin reported %v with %d entries", round, op, ok, len(model))
			}
			if !ok {
				continue
			}
			i := slices.IndexFunc(model, func(e core.Ranked[int]) bool { return e.V == got.V })
			if least := slices.MinFunc(model, order); i < 0 || least.V != got.V {
				t.Fatalf("round %d op %d: popped %+v, least is %+v", round, op, got, least)
			}
			model = slices.Delete(model, i, i+1)
		}
		slices.SortFunc(model, order)
		for _, want := range model {
			if got, _ := h.PopWithin(math.Inf(1)); got != want {
				t.Fatalf("round %d: drained %+v, want %+v", round, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("round %d: %d entries left after draining", round, h.Len())
		}
	}
}

// TestMinHeapAllocs is the runtime witness for MinHeap's noalloc
// annotations: within the capacity Reserve made, Push and PopWithin
// allocate nothing.
func TestMinHeapAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	var h core.MinHeap[*int]
	h.Reserve(64)
	v := new(int)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for range 64 {
			h.Push(float64(i%13), uint32(i), v)
			i++
		}
		for h.Len() > 0 {
			h.PopWithin(math.Inf(1))
		}
	})
	if allocs != 0 {
		t.Fatalf("64 Push and PopWithin calls allocated %.1f times; want 0", allocs)
	}
}

// BenchmarkMinHeap pushes and drains a frontier of entries with tied
// bounds — MinHeap against container/heap, the queue it replaced.
func BenchmarkMinHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	lbs := make([]float64, 1024)
	for i := range lbs {
		lbs[i] = float64(rng.Intn(64))
	}
	b.Run("MinHeap", func(b *testing.B) {
		var h core.MinHeap[int]
		for b.Loop() {
			for i, lb := range lbs {
				h.Push(lb, 0, i)
			}
			for h.Len() > 0 {
				h.PopWithin(math.Inf(1))
			}
		}
	})
	b.Run("container/heap", func(b *testing.B) {
		ref := &refHeap{}
		for b.Loop() {
			for i, lb := range lbs {
				heap.Push(ref, core.Ranked[int]{LB: lb, V: i})
			}
			for ref.Len() > 0 {
				heap.Pop(ref)
			}
		}
	})
}
