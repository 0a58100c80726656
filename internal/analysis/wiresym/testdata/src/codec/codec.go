package codec

import "errors"

// ---- good pairs: no findings ----

type header struct {
	version uint16
	flags   uint8
	rows    int
}

func encodeHeader(w *Writer, h header) {
	w.U16(h.version)
	w.U8(h.flags)
	w.Count(h.rows)
}

func decodeHeader(r *Reader) (header, error) {
	var h header
	h.version = r.U16()
	h.flags = r.U8()
	h.rows = int(r.U32()) // Count normalizes to U32
	return h, r.Err()
}

// Bool/U8 normalization across the pair.
func encodeFlag(w *Writer, live bool) { w.Bool(live) }

func decodeFlag(r *Reader) bool { return r.U8() == 1 }

// Counted loop on both sides.
func encodeList(w *Writer, vals []float64) {
	w.Count(len(vals))
	for _, v := range vals {
		w.F64(v)
	}
}

func decodeList(r *Reader) []float64 {
	n := int(r.U32())
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = r.F64()
	}
	return vals
}

// Tag-hoist: every encoder arm writes the tag the decoder reads once
// before switching.
func encodeItem(w *Writer, v any) {
	switch x := v.(type) {
	case nil:
		w.U8(0)
	case int64:
		w.U8(1)
		w.I64(x)
	default:
		w.U8(2)
		w.Blob(nil)
	}
}

func decodeItem(r *Reader) (any, error) {
	switch tag := r.U8(); tag {
	case 0:
		return nil, r.Err()
	case 1:
		return r.I64(), r.Err()
	case 2:
		return r.Blob(), r.Err()
	default:
		return nil, errors.New("codec: bad item tag")
	}
}

// If-continue restructure on the encoder vs flat guard on the decoder.
func encodeSparse(w *Writer, vals []float64) {
	w.Count(len(vals))
	for _, v := range vals {
		if v == 0 {
			w.U8(0)
			continue
		}
		w.U8(1)
		w.F64(v)
	}
}

func decodeSparse(r *Reader) []float64 {
	vals := make([]float64, int(r.U32()))
	for i := range vals {
		if r.U8() == 1 {
			vals[i] = r.F64()
		}
	}
	return vals
}

// Delegating calls pair by normalized callee name.
type Tree struct{ h header }

func (t *Tree) EncodeSnapshot(w *Writer) {
	w.U64(uint64(t.h.rows))
	encodeHeader(w, t.h)
}

func loadTree(r *Reader) (*Tree, error) {
	_ = r.U64()
	h, err := decodeHeader(r)
	if err != nil {
		return nil, err
	}
	return &Tree{h: h}, r.Err()
}

// A bare verb pairs by receiver: Serialize on Volume with LoadVolume.
type Volume struct{ pages [][]byte }

func (v *Volume) Serialize() []byte {
	w := &Writer{}
	w.Raw([]byte("VOL"))
	w.Count(len(v.pages))
	for _, pg := range v.pages {
		w.Raw(pg)
	}
	return w.Bytes()
}

func LoadVolume(data []byte) (*Volume, error) {
	r := &Reader{}
	_ = r.Raw(3)
	v := &Volume{pages: make([][]byte, r.Count())}
	for i := range v.pages {
		v.pages[i] = r.Raw(4)
	}
	return v, r.Err()
}

// Multi-stream assemblers are skipped, and their counterparts stay
// silent under the same key.
func encodeFrame(hw, pw *Writer, h header) {
	hw.U32(0)
	encodeHeader(pw, h)
}

func decodeFrame(r *Reader) (header, error) {
	_ = r.U32()
	return decodeHeader(r)
}

// ---- drift: findings ----

type node struct {
	id   uint32
	dist float64
}

func encodeNode(w *Writer, n node) {
	w.U32(n.id) // want `wire drift between encodeNode and decodeNode: encoder writes U32 .* where decoder reads F64`
	w.F64(n.dist)
}

func decodeNode(r *Reader) node {
	var n node
	n.dist = r.F64() // swapped field order relative to the encoder
	n.id = r.U32()
	return n
}

func encodeMeta(w *Writer, seed int64, rows int) {
	w.I64(seed)
	w.Count(rows) // want `wire drift between encodeMeta and decodeMeta: encoder writes U32 .* with no matching read`
}

func decodeMeta(r *Reader) int64 {
	seed := r.I64()
	return seed
}

func encodeOrphan(w *Writer, v uint64) { // want `encoder encodeOrphan has no decoder counterpart`
	w.U64(v)
}

func decodeWidow(r *Reader) uint64 { // want `decoder decodeWidow has no encoder counterpart`
	return r.U64()
}

// Loop asymmetry: the decoder reads a flat value where the encoder
// repeats a group.
func encodeRuns(w *Writer, runs [][]int) {
	w.Count(len(runs))
	for _, run := range runs { // want `wire drift between encodeRuns and decodeRuns: encoder writes a repeated group .* where decoder reads Ints`
		w.Ints(run)
	}
}

func decodeRuns(r *Reader) [][]int {
	n := int(r.U32())
	_ = n
	return [][]int{r.Ints()}
}

// A bare package-level verb pairs under the package's own format: Save
// with Load.
func Save(kind string) []byte {
	w := &Writer{}
	w.Raw([]byte("MAGIC")) // want `wire drift between Save and Load: encoder writes Raw .* where decoder reads U8`
	w.U8(uint8(len(kind)))
	w.Raw([]byte(kind))
	return w.Bytes()
}

func Load(data []byte) (string, error) {
	r := &Reader{}
	n := r.U8() // the magic is never read
	kind := string(r.Raw(int(n)))
	return kind, r.Err()
}
