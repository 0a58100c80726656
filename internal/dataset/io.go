package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// File format (little endian):
//
//	magic "MIDX1" | kindLen u8, kind | maxDistance f64 |
//	nObjects u32, objects... | nQueries u32, queries...
//
// MIDX2 appends one section for the attribute bags of filtered search:
//
//	... | nAttrs u32, (id u32, attrs)...
//
// where id is the object's position in the objects section (= its
// identifier after Load) and attrs uses the store attrs codec. Only
// objects with a non-empty bag appear. Save emits MIDX2 only when at
// least one bag exists, so attribute-less datasets stay byte-identical
// to MIDX1 and readable by older tools; Load accepts both magics.
//
// Objects use the store codec. The metric is implied by the kind.
const (
	magic   = "MIDX1"
	magicV2 = "MIDX2"
)

// Save writes a generated dataset (objects + query workload) to a file.
func Save(path string, g *Generated) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ids := g.Dataset.LiveIDs()
	// Positions (= post-Load identifiers) of objects carrying attrs; a
	// non-empty list upgrades the file to MIDX2.
	var withAttrs []int
	for pos, id := range ids {
		if g.Dataset.AttrRow(id).AttrLen() > 0 {
			withAttrs = append(withAttrs, pos)
		}
	}
	mag := magic
	if len(withAttrs) > 0 {
		mag = magicV2
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(mag); err != nil {
		return err
	}
	if err := w.WriteByte(byte(len(g.Kind))); err != nil {
		return err
	}
	if _, err := w.WriteString(string(g.Kind)); err != nil {
		return err
	}
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.MaxDistance))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Dataset.Count()))
	for _, id := range ids {
		buf = store.EncodeObject(buf, g.Dataset.Object(id))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Queries)))
	for _, q := range g.Queries {
		buf = store.EncodeObject(buf, q)
	}
	if len(withAttrs) > 0 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(withAttrs)))
		for _, pos := range withAttrs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pos))
			buf = store.EncodeAttrs(buf, g.Dataset.AttrRow(ids[pos]))
		}
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return w.Flush()
}

// MetricFor returns the distance function of a dataset kind (Table 2).
func MetricFor(kind Kind) (core.Metric, error) {
	switch kind {
	case LA:
		return core.L2{}, nil
	case Words:
		return core.Edit{}, nil
	case Color:
		return core.L1{}, nil
	case Synthetic:
		return core.IntLInf{}, nil
	default:
		return nil, fmt.Errorf("dataset: unknown kind %q", kind)
	}
}

// Load reads a dataset written by Save.
func Load(path string) (*Generated, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(magic)+1 {
		return nil, fmt.Errorf("dataset: %s is not a %s file", path, magic)
	}
	mag := string(raw[:len(magic)])
	if mag != magic && mag != magicV2 {
		return nil, fmt.Errorf("dataset: %s is not a %s file", path, magic)
	}
	raw = raw[len(magic):]
	kindLen := int(raw[0])
	if len(raw) < 1+kindLen+12 {
		return nil, io.ErrUnexpectedEOF
	}
	kind := Kind(raw[1 : 1+kindLen])
	raw = raw[1+kindLen:]
	m, err := MetricFor(kind)
	if err != nil {
		return nil, err
	}
	maxD := math.Float64frombits(binary.LittleEndian.Uint64(raw))
	n := int(binary.LittleEndian.Uint32(raw[8:]))
	raw = raw[12:]
	objs := make([]core.Object, 0, n)
	for i := 0; i < n; i++ {
		o, used, err := store.DecodeObject(raw)
		if err != nil {
			return nil, fmt.Errorf("dataset: object %d: %w", i, err)
		}
		objs = append(objs, o)
		raw = raw[used:]
	}
	if len(raw) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	nq := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	qs := make([]core.Object, 0, nq)
	for i := 0; i < nq; i++ {
		q, used, err := store.DecodeObject(raw)
		if err != nil {
			return nil, fmt.Errorf("dataset: query %d: %w", i, err)
		}
		qs = append(qs, q)
		raw = raw[used:]
	}
	ds := core.NewDataset(core.NewSpace(m), objs)
	if mag == magicV2 {
		if len(raw) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		na := int(binary.LittleEndian.Uint32(raw))
		raw = raw[4:]
		dec := store.NewAttrDecoder()
		for i := 0; i < na; i++ {
			if len(raw) < 4 {
				return nil, io.ErrUnexpectedEOF
			}
			id := int(binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
			used, err := store.AttrsLen(raw)
			if err == nil {
				err = dec.DecodeInto(raw[:used], ds, id)
			}
			if err != nil {
				return nil, fmt.Errorf("dataset: attrs %d: %w", i, err)
			}
			raw = raw[used:]
		}
	}
	return &Generated{
		Kind:        kind,
		Dataset:     ds,
		Queries:     qs,
		MaxDistance: maxD,
	}, nil
}
