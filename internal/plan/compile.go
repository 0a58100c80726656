package plan

import (
	"iter"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"metricindex/internal/core"
)

// A Matcher is a Predicate compiled against the attribute columns of one
// dataset version: each leaf's field resolves to its column and each
// string literal to its dictionary code once, so testing a row is a few
// array loads and integer compares instead of a map lookup per field.
// It answers exactly what Predicate.Eval answers on Dataset.Attrs (the
// reference semantics; FuzzCompiledPredicate holds the two equal).
//
// Match tests one row (the post strategy's accept test, and the probe's
// where the index has no copy of the cells), Word evaluates 64 rows of
// an index's row-ordered copy of the cells (core.AttrRows) at once (the
// probe on a pivot table), and Rows evaluates the whole predicate
// column-at-a-time (the pre strategy). Match and Word only read the
// Matcher, so goroutines may share it; Rows may not run beside them. A
// Matcher is valid while the dataset is not written — one epoch read
// section — and is returned with Release.
type Matcher struct {
	store *core.AttrStore
	slots int
	root  cnode
	bufs  [][]uint64 // one row bitmap per OR depth, reused across queries
	// hits holds the equality leaves' verdict tables, reused across
	// queries; nhits of them are in use.
	hits  [][]uint8
	nhits int
}

type cnode struct {
	kind nodeKind
	kids []cnode
	leaf
}

// leafClass is how a compiled leaf tests a cell.
type leafClass uint8

const (
	leafEq  leafClass = iota // =, != and IN: membership in nums or codes
	leafNum                  // numeric ordering: lo <= x <= hi
	leafStr                  // string ordering against str
)

type leaf struct {
	col   *core.AttrColumn // nil when no row carries the field
	class leafClass
	neg   bool      // !=: present and not equal
	nums  []float64 // numeric members
	codes []uint32  // string members present in the dictionary
	lo    float64
	hi    float64
	op    opCode
	str   string
	// strHits and tagHits are an equality leaf's verdicts per string and
	// tag-set code (verdicts); nil when the column cannot hold the kind
	// or no string member exists.
	strHits, tagHits []uint8
}

var matcherPool = sync.Pool{New: func() any { return new(Matcher) }}

// Compile binds p to the attribute columns of ds.
func (p *Predicate) Compile(ds *core.Dataset) *Matcher {
	m := matcherPool.Get().(*Matcher)
	m.store, m.slots, m.nhits = ds.AttrStore(), ds.Len(), 0
	m.root = m.compile(&p.root)
	return m
}

// Release returns the matcher for reuse; it must not be used after.
func (m *Matcher) Release() {
	m.store, m.root = nil, cnode{}
	matcherPool.Put(m)
}

// Store returns the attribute store the matcher was compiled against:
// Word reads a copy of its cells, and only of its cells.
func (m *Matcher) Store() *core.AttrStore { return m.store }

func (m *Matcher) compile(n *node) cnode {
	if n.kind != nodeLeaf {
		kids := make([]cnode, len(n.kids))
		for i := range n.kids {
			kids[i] = m.compile(&n.kids[i])
		}
		return cnode{kind: n.kind, kids: kids}
	}
	l := leaf{col: m.store.Column(n.field), op: n.op}
	switch {
	case n.op == opIn:
		for i := range n.set {
			l.member(m.store, &n.set[i])
		}
	case n.op == opEq || n.op == opNe:
		l.neg = n.op == opNe
		l.member(m.store, &n.val)
	case n.val.isNum:
		// Every ordering of a finite literal is one closed interval of
		// the widened float64 domain; NaN lies in none, as cmpFloat
		// orders it against nothing.
		l.class, l.lo, l.hi = leafNum, math.Inf(-1), math.Inf(1)
		switch n.op {
		case opLt:
			l.hi = math.Nextafter(n.val.num, math.Inf(-1))
		case opLe:
			l.hi = n.val.num
		case opGt:
			l.lo = math.Nextafter(n.val.num, math.Inf(1))
		case opGe:
			l.lo = n.val.num
		}
	default:
		l.class, l.str = leafStr, n.val.str
	}
	if l.class == leafEq && l.col != nil {
		m.verdicts(&l)
	}
	return cnode{kind: nodeLeaf, leaf: l}
}

// member adds one literal of an equality or IN leaf. A string no row
// holds can match nothing, so it is dropped.
func (l *leaf) member(s *core.AttrStore, o *operand) {
	if o.isNum {
		l.nums = append(l.nums, o.num)
	} else if c, ok := s.StringCode(o.str); ok {
		l.codes = append(l.codes, c)
	}
}

// Match reports whether row id satisfies the predicate.
//
//metriclint:noalloc
func (m *Matcher) Match(id int) bool { return m.root.match(m.store, id) }

//metriclint:noalloc
func (n *cnode) match(s *core.AttrStore, id int) bool {
	switch n.kind {
	case nodeAnd:
		for i := range n.kids {
			if !n.kids[i].match(s, id) {
				return false
			}
		}
		return true
	case nodeOr:
		for i := range n.kids {
			if n.kids[i].match(s, id) {
				return true
			}
		}
		return false
	}
	if n.col == nil {
		return false
	}
	k, v := n.col.At(id)
	return n.cell(s, k, v)
}

// cell tests one stored value (kind 0: the row lacks the field).
//
//metriclint:noalloc
func (l *leaf) cell(s *core.AttrStore, k core.AttrKind, v uint64) bool {
	switch {
	case k == 0:
		return false
	case l.class == leafEq:
		return l.eq(s, k, v) != l.neg
	case l.class == leafNum:
		x, ok := numeric(k, v)
		return ok && x >= l.lo && x <= l.hi
	}
	return k == core.AttrString && matchCmp(l.op, strings.Compare(s.String(uint32(v)), l.str))
}

// eq is matchEq against every member: numbers match ints and floats,
// strings match strings and any tag of a tag set.
//
//metriclint:noalloc
func (l *leaf) eq(s *core.AttrStore, k core.AttrKind, v uint64) bool {
	switch k {
	case core.AttrInt, core.AttrFloat:
		x, _ := numeric(k, v)
		for _, y := range l.nums {
			if x == y {
				return true
			}
		}
	case core.AttrString:
		for _, c := range l.codes {
			if uint32(v) == c {
				return true
			}
		}
	case core.AttrTags:
		for _, t := range s.TagCodes(uint32(v)) {
			for _, c := range l.codes {
				if t == c {
					return true
				}
			}
		}
	}
	return false
}

// numeric widens an int or float payload as AttrValue.Numeric does.
//
//metriclint:noalloc
func numeric(k core.AttrKind, v uint64) (float64, bool) {
	switch k {
	case core.AttrInt:
		return float64(int64(v)), true
	case core.AttrFloat:
		return math.Float64frombits(v), true
	}
	return 0, false
}

// Rows yields, in ascending order, every row the predicate matches. It
// evaluates column-at-a-time: the first leaf of each AND and every OR
// branch sweep their columns into a row bitmap, and the remaining AND
// terms are tested only on the rows still set.
func (m *Matcher) Rows() iter.Seq[int] {
	return func(yield func(int) bool) {
		out := m.buf(0)
		m.fill(&m.root, out, 0)
		for w, word := range out {
			for word != 0 {
				id := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if !yield(id) {
					return
				}
			}
		}
	}
}

// buf returns the zeroed row bitmap of one OR depth.
func (m *Matcher) buf(depth int) []uint64 {
	for len(m.bufs) <= depth {
		m.bufs = append(m.bufs, nil)
	}
	words := (m.slots + 63) >> 6
	b := m.bufs[depth]
	if cap(b) < words {
		b = make([]uint64, words)
		m.bufs[depth] = b
	}
	b = b[:words]
	clear(b)
	return b
}

// fill sets the bit of every row n matches in out, which is zero.
func (m *Matcher) fill(n *cnode, out []uint64, depth int) {
	switch n.kind {
	case nodeAnd:
		m.fill(&n.kids[0], out, depth)
		for i := 1; i < len(n.kids); i++ {
			m.refine(&n.kids[i], out)
		}
	case nodeOr:
		m.fill(&n.kids[0], out, depth)
		for i := 1; i < len(n.kids); i++ {
			tmp := m.buf(depth + 1)
			m.fill(&n.kids[i], tmp, depth+1)
			for w := range out {
				out[w] |= tmp[w]
			}
		}
	default:
		m.fillLeaf(&n.leaf, out)
	}
}

// refine clears the bits of out whose rows n does not match.
func (m *Matcher) refine(n *cnode, out []uint64) {
	for w, word := range out {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if !n.match(m.store, w<<6|b) {
				out[w] &^= 1 << b
			}
		}
	}
}

// fillLeaf sweeps one column 64 rows at a time (leafWord), building
// each bitmap word in a register.
func (m *Matcher) fillLeaf(l *leaf, out []uint64) {
	if l.col == nil {
		return
	}
	kinds, vals, dense := l.col.Dense()
	if !dense {
		l.col.EachSparse(func(id int, k core.AttrKind, v uint64) {
			if l.cell(m.store, k, v) {
				out[id>>6] |= 1 << (id & 63)
			}
		})
		return
	}
	for base := 0; base < len(kinds); base += 64 {
		end := min(base+64, len(kinds))
		out[base>>6] |= leafWord(m.store, l, kinds[base:end], vals[base:end])
	}
}

// Word evaluates the predicate over rows [base, end) of rows, a copy of
// the cells of the store the matcher was compiled against, with end −
// base at most 64: bit i is set iff row base+i matches. Leaves sweep
// their field's copied column at unit stride (leafWord); an AND is the
// AND of its terms' words, stopping at a zero word, and an OR the OR.
// It answers what Match answers for each row's id, provided the copy
// is in step with the store (core.AttrRows.InStep).
//
//metriclint:noalloc
func (m *Matcher) Word(rows *core.AttrRows, base, end int) uint64 {
	return m.word(&m.root, rows, base, end)
}

//metriclint:noalloc
func (m *Matcher) word(n *cnode, rows *core.AttrRows, base, end int) uint64 {
	switch n.kind {
	case nodeAnd:
		w := ^uint64(0) >> uint(64-(end-base))
		for i := 0; i < len(n.kids) && w != 0; i++ {
			w &= m.word(&n.kids[i], rows, base, end)
		}
		return w
	case nodeOr:
		var w uint64
		for i := range n.kids {
			w |= m.word(&n.kids[i], rows, base, end)
		}
		return w
	}
	if n.col == nil {
		return 0
	}
	kinds, vals32, vals64 := rows.Column(n.col.ID())
	if vals64 != nil {
		return leafWord(m.store, &n.leaf, kinds[base:end], vals64[base:end])
	}
	return leafWord(m.store, &n.leaf, kinds[base:end], vals32[base:end])
}

// leafWord tests at most 64 cells of one field — kinds[j] and vals[j]
// are row j's, the payload in 32 bits when it fits (an AttrRows
// column) — into a word whose bit j is the verdict of row j. Numeric
// intervals and equality leaves get loops of their own (equality reads
// the leaf's verdict for each string and tag-set code; a numeric
// interval excludes NaN, as cmpFloat orders it against nothing); string
// orderings test each cell.
//
//metriclint:noalloc
func leafWord[P uint32 | uint64](s *core.AttrStore, l *leaf, kinds []core.AttrKind, vals []P) uint64 {
	var word uint64
	vals = vals[:len(kinds)]
	switch l.class {
	case leafNum:
		lo, hi := l.lo, l.hi
		for j, k := range kinds {
			var x float64
			switch k {
			case core.AttrInt:
				x = float64(int64(vals[j]))
			case core.AttrFloat:
				x = math.Float64frombits(uint64(vals[j]))
			default:
				continue
			}
			if x >= lo && x <= hi {
				word |= 1 << j
			}
		}
	case leafEq:
		if !l.neg && len(l.nums) == 0 && len(l.codes) == 0 {
			return 0 // only literals no row holds
		}
		var neg uint8
		if l.neg {
			neg = 1
		}
		for j, k := range kinds {
			var hit uint8
			switch k {
			case 0:
				continue
			case core.AttrString:
				hit = verdict(l.strHits, uint64(vals[j])) ^ neg
			case core.AttrTags:
				hit = verdict(l.tagHits, uint64(vals[j])) ^ neg
			default:
				hit = uint8(bit(l.eq(s, k, uint64(vals[j])))) ^ neg
			}
			word |= uint64(hit) << j
		}
	default:
		for j, k := range kinds {
			word |= bit(l.cell(s, k, uint64(vals[j]))) << j
		}
	}
	return word
}

// bit is 1 for true, 0 for false.
//
//metriclint:noalloc
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// verdicts decides, per string and tag-set code, whether an equality
// leaf's members match it, so a sweep reads one byte per row instead of
// comparing codes. It builds only the tables a sweep can read: none
// when the leaf has no string member (then no string or tag set
// matches), the string table only up to the largest member's code
// (verdict reads the codes past it as no match), and a kind's table
// only when the column has held that kind. The tables are the matcher's
// reused buffers.
func (m *Matcher) verdicts(l *leaf) {
	if len(l.codes) == 0 {
		return
	}
	if l.col.HasHeld(core.AttrString) {
		l.strHits = m.table(int(slices.Max(l.codes)) + 1)
		for _, c := range l.codes {
			l.strHits[c] = 1
		}
	}
	if l.col.HasHeld(core.AttrTags) {
		l.tagHits = m.table(m.store.TagSets())
		for c := range l.tagHits {
			if m.store.TagSetLive(uint32(c)) && l.eq(m.store, core.AttrTags, uint64(c)) {
				l.tagHits[c] = 1
			}
		}
	}
}

// table returns the matcher's next verdict table, n codes long, zeroed.
func (m *Matcher) table(n int) []uint8 {
	if m.nhits == len(m.hits) {
		m.hits = append(m.hits, nil)
	}
	b := m.hits[m.nhits]
	if cap(b) < n {
		b = make([]uint8, n)
	}
	b = b[:n]
	clear(b)
	m.hits[m.nhits] = b
	m.nhits++
	return b
}

// verdict reads a code's verdict; codes past a table that was not built
// match nothing.
//
//metriclint:noalloc
func verdict(table []uint8, code uint64) uint8 {
	if code < uint64(len(table)) {
		return table[code]
	}
	return 0
}
