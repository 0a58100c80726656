package core

// Attribute metadata for filtered (hybrid) search: every dataset object
// may carry a small bag of typed fields — ints, floats, strings, and
// tag sets — that predicates of the filter clause evaluate against.
// Attrs ride alongside the object itself: the Dataset stores them
// column-wise (columns.go), epoch snapshots clone them, and the
// snapshot/WAL formats persist them, but they never participate in the
// metric — the distance function sees only the Object. An Attrs map is
// the exchange form: what callers hand to SetAttrs and what
// Dataset.Attrs materialises.

// AttrKind discriminates the typed variants of an AttrValue. The
// numeric values are frozen: they appear in the MXSNAP/MXWAL/MIDX wire
// encodings (see docs/PERSISTENCE.md).
type AttrKind uint8

const (
	// AttrInt is a signed 64-bit integer field.
	AttrInt AttrKind = 1
	// AttrFloat is a float64 field.
	AttrFloat AttrKind = 2
	// AttrString is a string field compared by exact equality.
	AttrString AttrKind = 3
	// AttrTags is a set of string tags; equality and IN match any
	// element of the set.
	AttrTags AttrKind = 4
)

// AttrValue is one typed attribute value. The zero value is invalid
// (Kind 0); construct values with IntValue, FloatValue, StringValue, or
// TagsValue.
type AttrValue struct {
	kind AttrKind
	i    int64
	f    float64
	s    string
	tags []string
}

// IntValue builds an integer attribute value.
func IntValue(v int64) AttrValue { return AttrValue{kind: AttrInt, i: v} }

// FloatValue builds a float attribute value.
func FloatValue(v float64) AttrValue { return AttrValue{kind: AttrFloat, f: v} }

// StringValue builds a string attribute value.
func StringValue(v string) AttrValue { return AttrValue{kind: AttrString, s: v} }

// TagsValue builds a tag-set attribute value. The slice is owned by the
// value afterwards.
func TagsValue(tags ...string) AttrValue { return AttrValue{kind: AttrTags, tags: tags} }

// Kind returns the variant of the value.
func (v AttrValue) Kind() AttrKind { return v.kind }

// Int returns the integer payload (meaningful for AttrInt).
func (v AttrValue) Int() int64 { return v.i }

// Float returns the float payload (meaningful for AttrFloat).
func (v AttrValue) Float() float64 { return v.f }

// Str returns the string payload (meaningful for AttrString).
func (v AttrValue) Str() string { return v.s }

// Tags returns the tag-set payload (meaningful for AttrTags). Callers
// must not mutate the returned slice.
//
//metriclint:ignore read-only view by contract, not a defensive copy
func (v AttrValue) Tags() []string { return v.tags }

// Numeric returns the value as a float64 and whether the value is
// numeric at all. Int and float attributes compare against predicate
// constants in this widened domain, so `price < 10` works identically
// whether price was stored as an int or a float.
//
//metriclint:noalloc
func (v AttrValue) Numeric() (float64, bool) {
	switch v.kind {
	case AttrInt:
		return float64(v.i), true
	case AttrFloat:
		return v.f, true
	}
	return 0, false
}

// Equal reports deep equality of two attribute values.
func (v AttrValue) Equal(w AttrValue) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case AttrInt:
		return v.i == w.i
	case AttrFloat:
		return v.f == w.f
	case AttrString:
		return v.s == w.s
	case AttrTags:
		if len(v.tags) != len(w.tags) {
			return false
		}
		for i := range v.tags {
			if v.tags[i] != w.tags[i] {
				return false
			}
		}
		return true
	}
	return true
}

// Attrs is the attribute bag of one object: field name → typed value.
// A nil map means "no attributes"; predicates referencing a missing
// field simply do not match (they evaluate to false, never error).
type Attrs map[string]AttrValue

// Equal reports deep equality of two attribute bags (nil equals empty).
func (a Attrs) Equal(b Attrs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the bag (tag slices included), nil for
// nil.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	out := make(Attrs, len(a))
	for k, v := range a {
		if v.kind == AttrTags {
			v.tags = append([]string(nil), v.tags...)
		}
		out[k] = v
	}
	return out
}

// Accept is an attribute predicate compiled down to an id test: it
// reports whether the object with the given identifier satisfies the
// query's filter. Probe-filtering indexes call it on every candidate
// that survives the geometric pruning, *before* the distance
// computation, so non-matching objects cost no compdists.
type Accept func(id int) bool

// Match reports a(id): an Accept is a Filter.
func (a Accept) Match(id int) bool { return a(id) }

// Filter is the accept test an AcceptSearcher is handed: a bare Accept,
// or a predicate compiled against the dataset's attribute columns
// (plan.Matcher), which an index holding a row-ordered copy of those
// columns (AttrRows) evaluates over its own rows, 64 at a time, instead
// of calling Match per candidate.
type Filter interface {
	Match(id int) bool
}

// AcceptSearcher is the probe-filter capability: an index that can push
// an attribute predicate into its candidate-verification step. Answers
// must be exactly the filtered subset of the unfiltered answers — the
// accept test may only ever be applied before (or instead of) a
// distance computation, never in place of the geometric pruning
// guarantees. A nil accept (or a nil Accept inside it) means "match
// everything" and must behave exactly like the unfiltered search.
type AcceptSearcher interface {
	// RangeSearchAccept answers MRQ(q, r) restricted to accepted ids.
	RangeSearchAccept(q Object, r float64, accept Filter) ([]int, error)
	// KNNSearchAccept answers MkNNQ(q, k) over accepted ids only: the
	// k nearest objects among those satisfying accept.
	KNNSearchAccept(q Object, k int, accept Filter) ([]Neighbor, error)
}

// NoFilter reports whether f accepts every id: it is nil, or a nil
// Accept.
//
//metriclint:noalloc
func NoFilter(f Filter) bool {
	a, ok := f.(Accept)
	return f == nil || ok && a == nil
}

// PostFilterKNN extracts the k nearest accepted objects from an index
// without predicate pushdown. Each round probes for the kk nearest
// objects unfiltered and keeps the accepted ones; because a kNN answer
// is the top kk of the total (distance, id) order, its accepted subset
// is a prefix of the true filtered answer. kk starts at the caller's
// guess (raised to at least 2k) and doubles until k accepted neighbors
// surface or kk reaches n, the live object count, at which point the
// probe was exhaustive and the answer exact.
func PostFilterKNN(probe func(kk int) ([]Neighbor, error), n, k, kk int, accept Accept) ([]Neighbor, error) {
	if k <= 0 || n == 0 {
		return []Neighbor{}, nil
	}
	if k > n {
		k = n // no answer is longer than the live set; also bounds kk
	}
	if kk < 2*k {
		kk = 2 * k
	}
	for {
		if kk > n {
			kk = n
		}
		nbrs, err := probe(kk)
		if err != nil {
			return nil, err
		}
		kept := make([]Neighbor, 0, k)
		for _, nb := range nbrs {
			if accept(nb.ID) {
				kept = append(kept, nb)
				if len(kept) == k {
					return kept, nil
				}
			}
		}
		if kk >= n {
			return kept, nil
		}
		kk *= 2
	}
}
