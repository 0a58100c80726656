package plan

import (
	"math"
	"strconv"

	"metricindex/internal/core"
)

// Stats is the planner's per-attribute selectivity estimator: for every
// attribute field it keeps a log-scale histogram of numeric values and
// a bounded exact-count table of discrete values (numbers, strings, and
// tags). It is maintained incrementally — Observe on insert, Remove on
// delete — under the epoch write lock, so readers inside an epoch read
// section see a state exactly consistent with the dataset (the churn
// property test holds it to that). Stats itself is not synchronized.
//
// Bucketing is a pure function of the value (sign + binary octave), so
// Remove is an exact inverse of Observe and a post-hoc recount of the
// dataset reproduces the histogram bucket for bucket.
type Stats struct {
	rows   int // live objects observed, with or without attrs
	fields map[string]*fieldStats
}

// Histogram geometry: bucket 0 is exact zero; positive values occupy
// buckets 1+octave ranges, negative values mirror them. Octaves run
// 2^minOctave .. 2^maxOctave; values outside clamp to the edge octave.
const (
	minOctave  = -16
	maxOctave  = 30
	octaves    = maxOctave - minOctave + 1 // buckets per sign
	numBuckets = 1 + 2*octaves             // zero + positive + negative
)

// maxDistinct bounds the exact-count tables; further distinct values
// pool into an "other" bucket with a distinct-value counter.
const maxDistinct = 256

type fieldStats struct {
	count         int             // rows carrying this field
	hist          [numBuckets]int // numeric values only
	numN          int             // numeric values counted in hist
	vals          map[string]int  // discrete value → row count (bounded)
	other         int             // rows whose value overflowed vals
	otherDistinct int             // distinct values pooled in other
	tagN          int             // total tag memberships (tags fields)
}

// NewStats returns an empty estimator.
func NewStats() *Stats {
	return &Stats{fields: make(map[string]*fieldStats)}
}

// bucketOf maps a numeric value onto its histogram bucket. NaN clamps
// to the most-negative bucket; the mapping is total and deterministic.
func bucketOf(v float64) int {
	if v == 0 {
		return 0
	}
	if math.IsNaN(v) {
		return numBuckets - 1
	}
	a := math.Abs(v)
	e := math.Ilogb(a)
	if e < minOctave {
		e = minOctave
	} else if e > maxOctave {
		e = maxOctave
	}
	idx := 1 + (e - minOctave)
	if math.Signbit(v) {
		idx += octaves
	}
	return idx
}

// bucketBounds returns the value interval [lo, hi) covered by a
// positive-side bucket index (1-based within the positive range).
func bucketBounds(idx int) (lo, hi float64) {
	e := minOctave + (idx - 1)
	return math.Ldexp(1, e), math.Ldexp(1, e+1)
}

// discreteKey is the exact-count table key of a value: strings and tags
// key by their text, numbers by their shortest decimal form.
func discreteKey(v core.AttrValue) (string, bool) {
	switch v.Kind() {
	case core.AttrInt:
		return operandKey(float64(v.Int())), true
	case core.AttrFloat:
		return operandKey(v.Float()), true
	case core.AttrString:
		return v.Str(), true
	}
	return "", false
}

func operandKey(f float64) string {
	// Matches printOperand's number rendering, so predicate literals
	// and stored values meet in one key space.
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Observe folds one object's attribute bag (possibly nil) into the
// estimator. Call exactly once per live object, under the write lock.
func (s *Stats) Observe(a core.Attrs) {
	s.rows++
	for k, v := range a {
		s.fold(k, v, 1)
	}
}

// Remove is the exact inverse of Observe for the same bag.
func (s *Stats) Remove(a core.Attrs) {
	s.rows--
	for k, v := range a {
		s.fold(k, v, -1)
	}
}

// ObserveRow is Observe for the bag row id of ds holds, read from the
// dataset's columns without building it.
func (s *Stats) ObserveRow(ds *core.Dataset, id int) {
	s.rows++
	for k, v := range ds.AttrRow(id).AttrFields {
		s.fold(k, v, 1)
	}
}

// RemoveRow is the exact inverse of ObserveRow; call it while the row
// still holds the fields it was observed with.
func (s *Stats) RemoveRow(ds *core.Dataset, id int) {
	s.rows--
	for k, v := range ds.AttrRow(id).AttrFields {
		s.fold(k, v, -1)
	}
}

// fold adds (d = 1) or removes (d = -1) one field value. Removing a
// field the estimator never saw is a no-op.
func (s *Stats) fold(k string, v core.AttrValue, d int) {
	f := s.fields[k]
	if f == nil {
		if d < 0 {
			return
		}
		f = &fieldStats{vals: make(map[string]int)}
		s.fields[k] = f
	}
	f.count += d
	if x, numeric := v.Numeric(); numeric {
		f.hist[bucketOf(x)] += d
		f.numN += d
	}
	switch v.Kind() {
	case core.AttrTags:
		for _, t := range v.Tags() {
			f.foldVal(t, d)
			f.tagN += d
		}
	default:
		if key, ok := discreteKey(v); ok {
			f.foldVal(key, d)
		}
	}
}

func (f *fieldStats) foldVal(key string, d int) {
	if d > 0 {
		f.addVal(key)
	} else {
		f.delVal(key)
	}
}

func (f *fieldStats) addVal(key string) {
	if n, ok := f.vals[key]; ok {
		f.vals[key] = n + 1
		return
	}
	if len(f.vals) < maxDistinct {
		f.vals[key] = 1
		return
	}
	// Overflow pool. Distinct counting over the pool is approximate
	// (removals cannot tell when a value's last row leaves), which only
	// softens the equality estimate for very-high-cardinality fields.
	f.other++
	f.otherDistinct++
}

func (f *fieldStats) delVal(key string) {
	if n, ok := f.vals[key]; ok {
		if n == 1 {
			delete(f.vals, key)
		} else {
			f.vals[key] = n - 1
		}
		return
	}
	if f.other > 0 {
		f.other--
		if f.otherDistinct > f.other {
			f.otherDistinct = f.other
		}
	}
}

// Rows returns the number of live objects observed.
func (s *Stats) Rows() int { return s.rows }

// FieldRows returns the number of live objects carrying the field.
func (s *Stats) FieldRows(name string) int {
	if f := s.fields[name]; f != nil {
		return f.count
	}
	return 0
}

// ValueRows returns the exact-count table's row count for a discrete
// value of the field (0 when unseen or pooled into overflow).
func (s *Stats) ValueRows(name, value string) int {
	if f := s.fields[name]; f != nil {
		return f.vals[value]
	}
	return 0
}

// HistogramCounts returns a copy of the numeric histogram of the field
// (nil when the field is unknown) — the churn property test recounts
// against it.
func (s *Stats) HistogramCounts(name string) []int {
	f := s.fields[name]
	if f == nil {
		return nil
	}
	out := make([]int, numBuckets)
	copy(out, f.hist[:])
	return out
}

// Selectivity estimates the fraction of live objects satisfying the
// predicate, in [0, 1]. AND combines as a product, OR by
// inclusion-exclusion — the usual independence assumption.
func (s *Stats) Selectivity(p *Predicate) float64 {
	if s.rows == 0 {
		return 0
	}
	return s.nodeSel(&p.root)
}

func (s *Stats) nodeSel(n *node) float64 {
	switch n.kind {
	case nodeAnd:
		sel := 1.0
		for i := range n.kids {
			sel *= s.nodeSel(&n.kids[i])
		}
		return sel
	case nodeOr:
		miss := 1.0
		for i := range n.kids {
			miss *= 1 - s.nodeSel(&n.kids[i])
		}
		return 1 - miss
	}
	return s.leafSel(n)
}

func (s *Stats) leafSel(n *node) float64 {
	f := s.fields[n.field]
	if f == nil || f.count == 0 {
		return 0
	}
	rows := float64(s.rows)
	fieldFrac := float64(f.count) / rows
	switch n.op {
	case opEq:
		return clamp01(s.eqRows(f, &n.val) / rows)
	case opNe:
		return clamp01(fieldFrac - s.eqRows(f, &n.val)/rows)
	case opIn:
		sum := 0.0
		for i := range n.set {
			sum += s.eqRows(f, &n.set[i])
		}
		return clamp01(math.Min(sum/rows, fieldFrac))
	}
	// Ordering comparison: histogram mass of the open/closed interval.
	if !n.val.isNum {
		// Lexicographic string ranges: no histogram, assume half the
		// field's rows — a coarse default that still routes the query
		// to a safe strategy.
		return clamp01(0.5 * fieldFrac)
	}
	if f.numN == 0 {
		return 0
	}
	var frac float64
	switch n.op {
	case opLt, opLe:
		frac = f.rangeFrac(math.Inf(-1), n.val.num)
	default:
		frac = f.rangeFrac(n.val.num, math.Inf(1))
	}
	return clamp01(frac * float64(f.numN) / rows)
}

// eqRows estimates the number of rows whose field equals the literal.
func (s *Stats) eqRows(f *fieldStats, lit *operand) float64 {
	var key string
	if lit.isNum {
		key = operandKey(lit.num)
	} else {
		key = lit.str
	}
	if n, ok := f.vals[key]; ok {
		return float64(n)
	}
	if f.other > 0 && f.otherDistinct > 0 {
		return float64(f.other) / float64(f.otherDistinct)
	}
	return 0
}

// rangeFrac estimates the fraction of the field's numeric values inside
// [lo, hi], interpolating linearly within partially-covered buckets.
func (f *fieldStats) rangeFrac(lo, hi float64) float64 {
	if f.numN == 0 || lo > hi {
		return 0
	}
	covered := 0.0
	for idx := 0; idx < numBuckets; idx++ {
		c := f.hist[idx]
		if c == 0 {
			continue
		}
		var bLo, bHi float64
		switch {
		case idx == 0:
			if lo <= 0 && hi >= 0 {
				covered += float64(c)
			}
			continue
		case idx <= octaves:
			bLo, bHi = bucketBounds(idx)
		default:
			pLo, pHi := bucketBounds(idx - octaves)
			bLo, bHi = -pHi, -pLo
		}
		oLo := math.Max(lo, bLo)
		oHi := math.Min(hi, bHi)
		if oHi <= oLo {
			continue
		}
		covered += float64(c) * (oHi - oLo) / (bHi - bLo)
	}
	return covered / float64(f.numN)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
