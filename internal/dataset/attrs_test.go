package dataset

import (
	"runtime"
	"testing"

	"metricindex/internal/core"
)

// TestAttachAttrsHeapPerRow is the memory witness of column storage: the
// four generated fields of 100k rows hold at most 48 bytes of heap per
// row — nine bytes per field and row plus the dictionaries (about 37 on
// amd64) — where a map bag per row held about 775.
func TestAttachAttrsHeapPerRow(t *testing.T) {
	const n = 100000
	objs := make([]core.Object, n)
	for i := range objs {
		objs[i] = core.Vector{float64(i)}
	}
	g := &Generated{Kind: LA, Dataset: core.NewDataset(core.NewSpace(core.L2{}), objs)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := AttachAttrs(g, 1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	if perRow > 48 {
		t.Fatalf("attributes hold %.1f heap bytes per row, want ≤ 48", perRow)
	}
	runtime.KeepAlive(g)
}
