package dataset

import (
	"fmt"
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
	ids := g.Dataset.LiveIDs()
	objs := make([]core.Object, len(ids))
	// Positions (= post-Load identifiers) of objects carrying attrs; a
	// non-empty list upgrades the file to MIDX2.
	var withAttrs []int
	for pos, id := range ids {
		objs[pos] = g.Dataset.Object(id)
		if g.Dataset.AttrRow(id).AttrLen() > 0 {
			withAttrs = append(withAttrs, pos)
		}
	}
	mag := magic
	if len(withAttrs) > 0 {
		mag = magicV2
	}
	w := store.NewWriter()
	w.Raw([]byte(mag))
	w.U8(uint8(len(g.Kind)))
	w.Raw([]byte(g.Kind))
	w.F64(g.MaxDistance)
	w.Objects(objs)
	w.Objects(g.Queries)
	if len(withAttrs) > 0 {
		w.U32(uint32(len(withAttrs)))
		for _, pos := range withAttrs {
			w.U32(uint32(pos))
			w.RowAttrs(g.Dataset, ids[pos])
		}
	}
	return os.WriteFile(path, w.Bytes(), 0o666)
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

// Load reads a dataset written by Save. Every count is checked against
// the bytes left before anything is allocated, and the objects and queries
// must all be of the first object's kind.
func Load(path string) (*Generated, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := store.NewReader(raw)
	mag := string(r.Raw(len(magic)))
	if mag != magic && mag != magicV2 {
		return nil, fmt.Errorf("dataset: %s is not a %s file", path, magic)
	}
	kindLen := int(r.U8())
	kind := Kind(r.Raw(kindLen))
	maxD := r.F64()
	objs := r.Objects(nil)
	var ref core.Object
	if len(objs) > 0 {
		ref = objs[0]
	}
	qs := r.Objects(ref)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	m, err := MetricFor(kind)
	if err != nil {
		return nil, err
	}
	ds := core.NewDataset(core.NewSpace(m), objs)
	if mag == magicV2 {
		dec := store.NewAttrDecoder()
		na := r.Count(6) // id u32 + the empty bag's u16
		for i := 0; i < na; i++ {
			id := int(r.U32())
			span := r.AttrsSpan()
			if r.Err() != nil {
				break
			}
			if err := dec.DecodeInto(span, ds, id); err != nil {
				return nil, fmt.Errorf("dataset: attrs %d: %w", i, err)
			}
		}
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return &Generated{
		Kind:        kind,
		Dataset:     ds,
		Queries:     qs,
		MaxDistance: maxD,
	}, nil
}
