package persist

import (
	"bytes"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
)

// FuzzWALRecord throws arbitrary payloads at the WAL record decoder: it
// must never panic, and a payload it accepts must survive a round trip,
// decode∘encode∘decode = decode. Records are compared by their
// canonical encoding, so NaN coordinates compare equal and an empty bag
// equals none. Seeded with one record of every op, the read-only legacy
// ops 3 and 4 included.
func FuzzWALRecord(f *testing.F) {
	bag := core.Attrs{"category": core.StringValue("rare"), "level": core.IntValue(3), "tags": core.TagsValue("hot", "")}
	for _, w := range []epoch.Write{
		{Op: epoch.OpAdd, ID: 9, Obj: core.Vector{1, 2.5, -3}, Attrs: bag},
		{Op: epoch.OpRemove, ID: 4},
		{Op: epoch.OpInsert, ID: 12, Obj: core.Word("fuzzy"), Attrs: bag},
		{Op: epoch.OpDelete, ID: 12},
		{Op: epoch.OpSwap},
		{Op: epoch.OpSetAttrs, ID: 7, Attrs: bag},
	} {
		f.Add(encodeWALRecord(w.Op, 42, w.ID, w.Obj, w.Attrs)[8:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, ok := decodeWALRecord(payload)
		if !ok {
			return
		}
		enc := encodeWALRecord(rec.Op, rec.Epoch, rec.ID, rec.Obj, rec.Attrs)
		again, ok := decodeWALRecord(enc[8:])
		if !ok {
			t.Fatalf("re-encoded record %+v does not decode", rec)
		}
		if re := encodeWALRecord(again.Op, again.Epoch, again.ID, again.Obj, again.Attrs); !bytes.Equal(re, enc) {
			t.Fatalf("round trip changed the record:\n first  %+v\n second %+v", rec, again)
		}
	})
}
