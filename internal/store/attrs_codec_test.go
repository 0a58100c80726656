package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"metricindex/internal/core"
)

// TestAttrDecoderReplacesRow: decoding into a row replaces the fields it
// held, a key repeated in the encoding keeps its last value (as
// DecodeAttrs does), a truncated bag is reported, and the decoded row
// encodes to the bytes it came from.
func TestAttrDecoderReplacesRow(t *testing.T) {
	ds := core.NewDataset(core.NewSpace(core.L2{}), []core.Object{core.Vector{0}, core.Vector{1}})
	if err := ds.SetAttrs(0, core.Attrs{"old": core.IntValue(1), "k": core.StringValue("x")}); err != nil {
		t.Fatal(err)
	}
	dec := NewAttrDecoder()
	bag := core.Attrs{"a": core.IntValue(1), "k": core.StringValue("y"), "t": core.TagsValue("", "hot", "hot")}
	enc := EncodeAttrs(nil, bag)
	if n, err := AttrsLen(append(enc, 0xff)); err != nil || n != len(enc) {
		t.Fatalf("AttrsLen: %d bytes, %v; want %d", n, err, len(enc))
	}
	if err := dec.DecodeInto(enc, ds, 0); err != nil {
		t.Fatal(err)
	}
	if !ds.Attrs(0).Equal(bag) {
		t.Fatalf("decoded row %v, want %v", ds.Attrs(0), bag)
	}
	if got := EncodeAttrs(nil, ds.AttrRow(0)); !bytes.Equal(got, enc) {
		t.Fatalf("row re-encodes as %x, want %x", got, enc)
	}

	field := func(a core.Attrs) []byte { return EncodeAttrs(nil, a)[2:] }
	dup := binary.LittleEndian.AppendUint16(nil, 2)
	dup = append(dup, field(core.Attrs{"a": core.IntValue(7)})...)
	dup = append(dup, field(core.Attrs{"a": core.StringValue("z")})...)
	want, _, err := DecodeAttrs(dup)
	if err != nil || !want.Equal(core.Attrs{"a": core.StringValue("z")}) {
		t.Fatalf("DecodeAttrs of a repeated key: %v, %v", want, err)
	}
	if err := dec.DecodeInto(dup, ds, 1); err != nil {
		t.Fatal(err)
	}
	if got := ds.Attrs(1); !got.Equal(want) || ds.AttrRow(1).AttrLen() != 1 {
		t.Fatalf("row of a repeated key: %v (%d fields), want %v", got, ds.AttrRow(1).AttrLen(), want)
	}

	if _, err := AttrsLen(enc[:len(enc)-1]); err == nil {
		t.Fatal("AttrsLen accepted a truncated bag")
	}
	if err := dec.DecodeInto(enc[:len(enc)-1], ds, 0); err == nil {
		t.Fatal("a truncated bag decoded")
	}
}
