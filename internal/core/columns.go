package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
)

// Column-wise attribute storage. A Dataset keeps one column per field
// name: a kind byte (0 = the row does not carry the field) and an 8-byte
// payload per row. Ints store their two's-complement bits, floats their
// IEEE-754 bits, strings a code into a reference-counted dictionary, and
// tag sets a code into a dictionary of tag lists (whose members are
// string codes). A predicate therefore reads a field as one array load
// instead of a string-keyed map lookup per row, and a row costs nine
// bytes per field instead of a map.
//
// A column is dense (arrays indexed by id) while at least a quarter of
// its id range carries the field, and sparse (a map from id) otherwise,
// so a field set on a few scattered rows costs memory for those rows
// only. A column that no row carries any more is dropped.
//
// Each row also records its schema — the ids of the columns it carries,
// ascending — as a code into a dictionary shared by every row with the
// same fields (four bytes per row). Reading, rewriting or deleting a row
// therefore touches that row's own columns only, however many columns
// the store holds.

// MaxAttrLen is the largest field count, tag count and key, string or
// tag byte length a bag may hold: the attribute codec frames each in a
// u16 (docs/PERSISTENCE.md), so SetAttrs rejects anything longer rather
// than let an encoder write a record it cannot frame.
const MaxAttrLen = 1<<16 - 1

// denseFactor is the id range per carrying row past which a column
// switches to the sparse form.
const denseFactor = 4

// AttrSource is a read-only attribute bag: a map (Attrs), a dataset row
// (AttrRow) or an encoded bag being decoded. SetAttrs, ValidateAttrs,
// the attribute codec and the journal read every source through it, so
// a stored row is persisted or copied without building a map.
type AttrSource interface {
	// AttrLen returns the number of fields.
	AttrLen() int
	// AttrFields calls yield with every field, in no particular order,
	// until it returns false; ranging over the method value works too.
	// Tag slices are read-only and stay valid until the source is read
	// again.
	AttrFields(yield func(name string, v AttrValue) bool)
}

// AttrLen returns the number of fields of the bag.
func (a Attrs) AttrLen() int { return len(a) }

// AttrFields calls yield with every field of the bag.
func (a Attrs) AttrFields(yield func(string, AttrValue) bool) {
	for k, v := range a {
		if !yield(k, v) {
			return
		}
	}
}

// ValidateAttrs reports whether a (nil: no fields) can be stored and
// persisted: every value is one of the four kinds, and no field count,
// tag count, key, string or tag exceeds MaxAttrLen.
func ValidateAttrs(a AttrSource) error {
	r := fieldReaders.Get().(*fieldReader)
	err := r.read(a, false)
	fieldReaders.Put(r)
	return err
}

var fieldReaders = sync.Pool{New: func() any { return new(fieldReader) }}

// fieldReader reads a source in one pass, validating every field and,
// when asked to, keeping a copy. Its yield function is bound once, so a
// store that holds a reader reads without allocating.
type fieldReader struct {
	keep   bool
	fields []attrField
	err    error
	fn     func(string, AttrValue) bool
}

type attrField struct {
	name string
	v    AttrValue
}

func (r *fieldReader) read(a AttrSource, keep bool) error {
	r.keep, r.fields, r.err = keep, r.fields[:0], nil
	if a == nil {
		return nil
	}
	if n := a.AttrLen(); n > MaxAttrLen {
		return fmt.Errorf("core: %d attribute fields exceed the limit of %d", n, MaxAttrLen)
	}
	if r.fn == nil {
		r.fn = r.field
	}
	a.AttrFields(r.fn)
	return r.err
}

func (r *fieldReader) field(name string, v AttrValue) bool {
	if r.err = validateAttr(name, v); r.err != nil {
		return false
	}
	if r.keep {
		r.fields = append(r.fields, attrField{name, v})
	}
	return true
}

func validateAttr(name string, v AttrValue) error {
	if len(name) > MaxAttrLen {
		return fmt.Errorf("core: attribute name of %d bytes exceeds the limit of %d", len(name), MaxAttrLen)
	}
	switch v.kind {
	case AttrInt, AttrFloat:
	case AttrString:
		if len(v.s) > MaxAttrLen {
			return fmt.Errorf("core: attribute %.64q: string of %d bytes exceeds the limit of %d", name, len(v.s), MaxAttrLen)
		}
	case AttrTags:
		if len(v.tags) > MaxAttrLen {
			return fmt.Errorf("core: attribute %.64q: %d tags exceed the limit of %d", name, len(v.tags), MaxAttrLen)
		}
		for _, t := range v.tags {
			if len(t) > MaxAttrLen {
				return fmt.Errorf("core: attribute %.64q: tag of %d bytes exceeds the limit of %d", name, len(t), MaxAttrLen)
			}
		}
	default:
		return fmt.Errorf("core: attribute %.64q has invalid kind %d", name, v.kind)
	}
	return nil
}

// attrCell is one sparse-column entry.
type attrCell struct {
	kind AttrKind
	val  uint64
}

// AttrColumn is the column of one field: per row, the kind of the value
// the row carries (0 when it carries none) and its 8-byte payload — the
// int or float bits, or a string or tag-set code of the AttrStore.
type AttrColumn struct {
	name  string
	id    uint32 // the column's code in row schemas
	rows  int    // rows carrying the field
	held  uint8  // bit k set once a row has held a value of kind k
	kinds []AttrKind
	vals  []uint64
	// sparse holds the cells instead of kinds/vals when the column is
	// sparse; maxID bounds its ids.
	sparse map[int]attrCell
	maxID  int
}

// At returns the kind and payload row id carries (kind 0: none).
//
//metriclint:noalloc
func (c *AttrColumn) At(id int) (AttrKind, uint64) {
	if uint(id) < uint(len(c.kinds)) {
		return c.kinds[id], c.vals[id]
	}
	if c.sparse != nil {
		cell := c.sparse[id]
		return cell.kind, cell.val
	}
	return 0, 0
}

// Dense returns the column's arrays, indexed by id (rows past their end
// carry nothing), and true — or false when the column is sparse.
//
//metriclint:ignore read-only view by contract, not a defensive copy
func (c *AttrColumn) Dense() ([]AttrKind, []uint64, bool) {
	return c.kinds, c.vals, c.sparse == nil
}

// ID returns the column's id, stable while any row carries the field:
// the index of its cells in an AttrRows copy.
func (c *AttrColumn) ID() uint32 { return c.id }

// HasHeld reports whether a row has ever held a value of kind k in the
// column (not necessarily still).
func (c *AttrColumn) HasHeld(k AttrKind) bool { return c.held&(1<<k) != 0 }

// EachSparse calls fn for every row of a sparse column, in no particular
// order.
func (c *AttrColumn) EachSparse(fn func(id int, kind AttrKind, val uint64)) {
	for id, cell := range c.sparse {
		fn(id, cell.kind, cell.val)
	}
}

// set stores a cell for a row that carries none; slots is the capacity
// of the dataset's slot array, beyond which a dense column never
// reserves room.
func (c *AttrColumn) set(id int, kind AttrKind, val uint64, slots int) {
	c.rows++
	c.held |= 1 << kind
	if c.sparse == nil {
		if id >= len(c.kinds) {
			if c.rows*denseFactor < id+1 {
				c.toSparse()
				c.setSparse(id, kind, val)
				return
			}
			c.kinds, c.vals = extend(c.kinds, id+1, slots), extend(c.vals, id+1, slots)
		}
		c.kinds[id], c.vals[id] = kind, val
		return
	}
	c.setSparse(id, kind, val)
}

func (c *AttrColumn) setSparse(id int, kind AttrKind, val uint64) {
	c.sparse[id] = attrCell{kind, val}
	c.maxID = max(c.maxID, id)
	if c.rows*denseFactor >= c.maxID+1 {
		c.kinds = make([]AttrKind, c.maxID+1)
		c.vals = make([]uint64, c.maxID+1)
		for id, cell := range c.sparse {
			c.kinds[id], c.vals[id] = cell.kind, cell.val
		}
		c.sparse = nil
	}
}

// extend returns b grown to length n, doubling its capacity up to the
// slot capacity: a fill of a fixed-size dataset reallocates O(log n)
// times and ends exactly at its size, and rows appended one at a time
// reallocate as often as the slot array itself does. Arrays are never
// shortened, so the room past their length is zero.
func extend[T any](b []T, n, slots int) []T {
	if n <= cap(b) {
		return b[:n]
	}
	out := make([]T, n, max(n, min(slots, 2*cap(b))))
	copy(out, b)
	return out
}

func (c *AttrColumn) toSparse() {
	c.sparse = make(map[int]attrCell, c.rows)
	c.maxID = 0
	for id, k := range c.kinds {
		if k != 0 {
			c.sparse[id] = attrCell{k, c.vals[id]}
			c.maxID = id
		}
	}
	c.kinds, c.vals = nil, nil
}

// take removes and returns the row's cell (kind 0 when it had none).
func (c *AttrColumn) take(id int) (AttrKind, uint64) {
	k, v := c.At(id)
	if k == 0 {
		return 0, 0
	}
	c.rows--
	if c.sparse == nil {
		c.kinds[id], c.vals[id] = 0, 0
	} else {
		delete(c.sparse, id)
	}
	return k, v
}

// listDict is a reference-counted dictionary of uint32 lists, one code
// per distinct list: tag sets (lists of string codes) and row schemas
// (lists of column ids). Lists are immutable once added.
type listDict struct {
	lists [][]uint32
	refs  []int32           // code → references; 0 marks a free code
	code  map[string]uint32 // list members, 4 bytes each → code
	free  []uint32
	key   []byte // scratch code key
}

func (d *listDict) keyOf(l []uint32) []byte {
	d.key = d.key[:0]
	for _, c := range l {
		d.key = binary.LittleEndian.AppendUint32(d.key, c)
	}
	return d.key
}

// find returns the code of an equal list, taking a reference, or false.
func (d *listDict) find(l []uint32) (uint32, bool) {
	c, ok := d.code[string(d.keyOf(l))]
	if ok {
		d.refs[c]++
	}
	return c, ok
}

// add stores a list no code holds yet, which the dictionary owns from
// then on, and returns its code with one reference.
func (d *listDict) add(l []uint32) uint32 {
	var c uint32
	if n := len(d.free); n > 0 {
		c, d.free = d.free[n-1], d.free[:n-1]
		d.lists[c], d.refs[c] = l, 1
	} else {
		c = uint32(len(d.lists))
		d.lists = append(d.lists, l)
		d.refs = append(d.refs, 1)
	}
	if d.code == nil {
		d.code = make(map[string]uint32)
	}
	d.code[string(d.keyOf(l))] = c
	return c
}

// release drops a reference. When it was the last, the code is freed
// and its list returned with true.
func (d *listDict) release(c uint32) ([]uint32, bool) {
	if d.refs[c]--; d.refs[c] > 0 {
		return nil, false
	}
	l := d.lists[c]
	delete(d.code, string(d.keyOf(l)))
	d.lists[c] = nil
	d.free = append(d.free, c)
	return l, true
}

// clone copies the dictionary; the immutable lists are shared.
func (d *listDict) clone() listDict {
	return listDict{
		lists: slices.Clone(d.lists),
		refs:  slices.Clone(d.refs),
		code:  maps.Clone(d.code),
		free:  slices.Clone(d.free),
	}
}

// AttrStore holds a dataset's attribute columns, the schema of every
// row, and the dictionaries string and tag-set payloads point into. It
// is read through Dataset.AttrStore and written only through the
// Dataset.
type AttrStore struct {
	byName map[string]*AttrColumn
	byID   []*AttrColumn // column id → column; nil marks a free id
	idFree []uint32

	// rowSchema is, per row, 1 + the code in schemas of the ascending
	// ids of the columns the row carries (0: none).
	rowSchema []uint32
	schemas   listDict
	// lastSchema is the code setSchema last resolved: consecutive rows
	// with the same fields skip the dictionary lookup.
	lastSchema uint32

	// in holds the fields of the source a row is being set from, read
	// before the row changes; touched is setRow's scratch.
	in      fieldReader
	touched []uint32

	strs    []string // code → string
	strRefs []int32  // code → payload references; 0 marks a free code
	strCode map[string]uint32
	strFree []uint32

	sets    listDict   // tag-set code → member string codes
	setTags [][]string // tag-set code → members, the AttrValue view
	members []uint32   // internTags scratch

	// writes counts the rows setRow has rewritten and lastWrite is the
	// row it rewrote last: from them a copy of the cells (AttrRows)
	// tells whether a write it was not shown has happened.
	writes    uint64
	lastWrite int
}

// Column returns the column of the named field, or nil when no row
// carries it.
func (s *AttrStore) Column(name string) *AttrColumn { return s.byName[name] }

// StringCode returns the code of a stored string value or tag, and false
// when no row carries it.
func (s *AttrStore) StringCode(str string) (uint32, bool) {
	c, ok := s.strCode[str]
	return c, ok
}

// String returns the string a code stands for.
//
//metriclint:noalloc
func (s *AttrStore) String(code uint32) string { return s.strs[code] }

// Strings returns the number of string codes, free ones included: every
// string payload and tag member is below it.
func (s *AttrStore) Strings() int { return len(s.strs) }

// TagSets returns the number of tag-set codes, free ones included:
// every tag-set payload is below it.
func (s *AttrStore) TagSets() int { return len(s.sets.lists) }

// TagSetLive reports whether a tag-set code is in use (not free).
func (s *AttrStore) TagSetLive(code uint32) bool { return s.sets.refs[code] > 0 }

// TagCodes returns the member string codes of a tag-set code, in the
// order the tags were set.
//
//metriclint:ignore read-only view by contract, not a defensive copy
func (s *AttrStore) TagCodes(code uint32) []uint32 { return s.sets.lists[code] }

// value rebuilds the AttrValue a cell holds.
func (s *AttrStore) value(k AttrKind, v uint64) AttrValue {
	switch k {
	case AttrInt:
		return IntValue(int64(v))
	case AttrFloat:
		return FloatValue(math.Float64frombits(v))
	case AttrString:
		return StringValue(s.strs[v])
	}
	return AttrValue{kind: AttrTags, tags: s.setTags[v]}
}

// payload encodes a value as a cell payload, taking a dictionary
// reference for strings and tag sets.
func (s *AttrStore) payload(v AttrValue) uint64 {
	switch v.kind {
	case AttrInt:
		return uint64(v.i)
	case AttrFloat:
		return math.Float64bits(v.f)
	case AttrString:
		return uint64(s.internString(v.s))
	}
	return uint64(s.internTags(v.tags))
}

// release drops the dictionary reference a cell held.
func (s *AttrStore) release(k AttrKind, v uint64) {
	switch k {
	case AttrString:
		s.releaseString(uint32(v))
	case AttrTags:
		if members, freed := s.sets.release(uint32(v)); freed {
			for _, m := range members {
				s.releaseString(m)
			}
			s.setTags[v] = nil
		}
	}
}

func (s *AttrStore) internString(str string) uint32 {
	if c, ok := s.strCode[str]; ok {
		s.strRefs[c]++
		return c
	}
	var c uint32
	if n := len(s.strFree); n > 0 {
		c, s.strFree = s.strFree[n-1], s.strFree[:n-1]
		s.strs[c], s.strRefs[c] = str, 1
	} else {
		c = uint32(len(s.strs))
		s.strs = append(s.strs, str)
		s.strRefs = append(s.strRefs, 1)
	}
	if s.strCode == nil {
		s.strCode = make(map[string]uint32)
	}
	s.strCode[str] = c
	return c
}

func (s *AttrStore) releaseString(c uint32) {
	if s.strRefs[c]--; s.strRefs[c] > 0 {
		return
	}
	delete(s.strCode, s.strs[c])
	s.strs[c] = ""
	s.strFree = append(s.strFree, c)
}

// internTags returns the code of a tag list (order and duplicates kept),
// taking a reference. The list is copied, never retained.
func (s *AttrStore) internTags(tags []string) uint32 {
	s.members = s.members[:0]
	for _, t := range tags {
		c, ok := s.strCode[t]
		if !ok {
			break
		}
		s.members = append(s.members, c)
	}
	if len(s.members) == len(tags) {
		if c, ok := s.sets.find(s.members); ok {
			return c
		}
	}
	members := make([]uint32, len(tags))
	view := make([]string, len(tags))
	for i, t := range tags {
		members[i] = s.internString(t)
		view[i] = s.strs[members[i]]
	}
	c := s.sets.add(members)
	if int(c) == len(s.setTags) {
		s.setTags = append(s.setTags, view)
	} else {
		s.setTags[c] = view
	}
	return c
}

// column returns the named column, creating it.
func (s *AttrStore) column(name string) *AttrColumn {
	if c := s.byName[name]; c != nil {
		return c
	}
	c := &AttrColumn{name: name}
	if n := len(s.idFree); n > 0 {
		c.id, s.idFree = s.idFree[n-1], s.idFree[:n-1]
		s.byID[c.id] = c
	} else {
		c.id = uint32(len(s.byID))
		s.byID = append(s.byID, c)
	}
	if s.byName == nil {
		s.byName = make(map[string]*AttrColumn)
	}
	s.byName[name] = c
	return c
}

// clearCell removes row id's cell of c, dropping c once no row carries
// it.
func (s *AttrStore) clearCell(c *AttrColumn, id int) {
	if k, v := c.take(id); k != 0 {
		s.release(k, v)
	}
	if c.rows == 0 {
		delete(s.byName, c.name)
		s.byID[c.id] = nil
		s.idFree = append(s.idFree, c.id)
	}
}

// schema returns the ascending ids of the columns row id carries.
func (s *AttrStore) schema(id int) []uint32 {
	if uint(id) < uint(len(s.rowSchema)) {
		if code := s.rowSchema[id]; code != 0 {
			return s.schemas.lists[code-1]
		}
	}
	return nil
}

// setSchema makes cols (ascending column ids) the schema of row id,
// releasing the one it had.
func (s *AttrStore) setSchema(id int, cols []uint32, slots int) {
	var code uint32
	switch last := s.lastSchema; {
	case len(cols) == 0:
	case int(last) < len(s.schemas.lists) && slices.Equal(s.schemas.lists[last], cols): // a freed code's list is nil
		s.schemas.refs[last]++
		code = last + 1
	default:
		c, ok := s.schemas.find(cols)
		if !ok {
			c = s.schemas.add(slices.Clone(cols))
		}
		s.lastSchema, code = c, c+1
	}
	if id >= len(s.rowSchema) {
		if code == 0 {
			return
		}
		s.rowSchema = extend(s.rowSchema, id+1, slots)
	}
	if old := s.rowSchema[id]; old != 0 {
		s.schemas.release(old - 1)
	}
	s.rowSchema[id] = code
}

// setRow replaces the fields of row id with those of a (nil: none);
// slots is the capacity of the dataset's slot array. It reads a in full
// first, so a rejected source leaves the row unchanged and a may be a
// view of the row itself. It then rewrites the cells a carries in place
// and clears the cells of the columns the row no longer carries.
func (s *AttrStore) setRow(id int, a AttrSource, slots int) error {
	if err := s.in.read(a, true); err != nil {
		return err
	}
	s.touched = s.touched[:0]
	for _, f := range s.in.fields {
		c := s.column(f.name)
		if kind, old := c.take(id); kind != 0 {
			s.release(kind, old)
		}
		c.set(id, f.v.kind, s.payload(f.v), slots)
		s.touched = append(s.touched, c.id)
	}
	slices.Sort(s.touched)
	cols := slices.Compact(s.touched) // an encoded bag may repeat a key; its last value stands
	j := 0
	for _, ci := range s.schema(id) {
		for j < len(cols) && cols[j] < ci {
			j++
		}
		if j == len(cols) || cols[j] != ci {
			s.clearCell(s.byID[ci], id)
		}
	}
	s.setSchema(id, cols, slots)
	s.writes++
	s.lastWrite = id
	return nil
}

// clearRow removes every field of a row, dropping columns left empty.
func (s *AttrStore) clearRow(id int) {
	for _, ci := range s.schema(id) {
		s.clearCell(s.byID[ci], id)
	}
	s.setSchema(id, nil, 0)
}

// clone deep-copies the store. Dictionary entries are immutable, so
// member lists and schemas are shared.
func (s *AttrStore) clone() AttrStore {
	out := AttrStore{
		byName:    make(map[string]*AttrColumn, len(s.byName)),
		byID:      make([]*AttrColumn, len(s.byID)),
		idFree:    slices.Clone(s.idFree),
		rowSchema: slices.Clone(s.rowSchema),
		schemas:   s.schemas.clone(),
		strs:      slices.Clone(s.strs),
		strRefs:   slices.Clone(s.strRefs),
		strCode:   maps.Clone(s.strCode),
		strFree:   slices.Clone(s.strFree),
		sets:      s.sets.clone(),
		setTags:   slices.Clone(s.setTags),
	}
	for i, c := range s.byID {
		if c == nil {
			continue
		}
		cc := *c
		cc.kinds, cc.vals, cc.sparse = slices.Clone(c.kinds), slices.Clone(c.vals), maps.Clone(c.sparse)
		out.byID[i] = &cc
		out.byName[cc.name] = &cc
	}
	return out
}

// AttrRow is a read-only view of one dataset row's attributes. It reads
// the columns on every call, so it sees later writes to the row.
type AttrRow struct {
	ds *Dataset
	id int
}

// AttrLen returns the number of fields the row carries.
func (r AttrRow) AttrLen() int { return len(r.ds.attrs.schema(r.id)) }

// AttrFields calls yield with every field the row carries.
func (r AttrRow) AttrFields(yield func(string, AttrValue) bool) {
	s := &r.ds.attrs
	for _, ci := range s.schema(r.id) {
		c := s.byID[ci]
		if k, v := c.At(r.id); !yield(c.name, s.value(k, v)) {
			return
		}
	}
}
