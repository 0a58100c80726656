package epoch_test

import (
	"fmt"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/testutil"
)

// nopIndex indexes nothing, so an allocation test of the live front
// measures the front alone.
type nopIndex struct{}

func (nopIndex) Name() string                                    { return "nop" }
func (nopIndex) RangeSearch(core.Object, float64) ([]int, error) { return nil, nil }
func (nopIndex) KNNSearch(core.Object, int) ([]core.Neighbor, error) {
	return nil, nil
}
func (nopIndex) Insert(int) error    { return nil }
func (nopIndex) Delete(int) error    { return nil }
func (nopIndex) PageAccesses() int64 { return 0 }
func (nopIndex) ResetStats()         {}
func (nopIndex) MemBytes() int64     { return 0 }
func (nopIndex) DiskBytes() int64    { return 0 }

var _ core.Index = nopIndex{}

// TestWritePathsBuildNoBag is the witness that the live front's write
// sections keep the estimator exact from the attribute columns without
// materialising a row's bag: in steady state (values shared by other
// rows, slots reused) AddAttrsAt + RemoveAt allocate nothing, and
// SetAttrsAt only the validator it runs before journaling — for a bag of
// forty fields as for one of two.
func TestWritePathsBuildNoBag(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(64, 2, 10, core.L2{}, 1)
	red := core.Attrs{"kind": core.StringValue("red"), "tags": core.TagsValue("hot", "sale")}
	blue := core.Attrs{"kind": core.StringValue("blue"), "tags": core.TagsValue("hot")}
	wide := core.Attrs{}
	for f := 0; f < 40; f++ {
		wide[fmt.Sprintf("f%02d", f)] = core.StringValue("red")
	}
	for id := 0; id < ds.Len(); id++ {
		bag := red
		if id%2 == 1 {
			bag = blue
		}
		if err := ds.SetAttrs(id, bag); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.SetAttrs(0, wide); err != nil {
		t.Fatal(err)
	}
	l := epoch.NewLive(ds, nopIndex{})
	var o core.Object = core.Vector{1, 2}
	addRemove := func(bag core.Attrs) float64 {
		return testing.AllocsPerRun(200, func() {
			id, _, err := l.AddAttrsAt(o, bag)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.RemoveAt(id); err != nil {
				t.Fatal(err)
			}
		})
	}
	flip := false
	set := func(a, b core.Attrs) float64 {
		return testing.AllocsPerRun(200, func() {
			bag := a
			if flip = !flip; flip {
				bag = b
			}
			if _, err := l.SetAttrsAt(4, bag); err != nil {
				t.Fatal(err)
			}
		})
	}
	if narrow, wideRow := addRemove(red), addRemove(wide); narrow != 0 || wideRow != 0 {
		t.Errorf("AddAttrsAt + RemoveAt allocate %v (two fields), %v (forty)", narrow, wideRow)
	}
	if narrow, wideRow := set(red, blue), set(red, wide); narrow > 2 || wideRow > 2 {
		t.Errorf("SetAttrsAt allocates %v (two fields), %v (forty)", narrow, wideRow)
	}
}
