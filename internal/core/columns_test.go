package core

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

func attrsDataset(n int) *Dataset {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Vector{float64(i)}
	}
	return NewDataset(NewSpace(L2{}), objs)
}

// checkStore recounts what every column, row schema and dictionary entry
// should hold from a model of the bags and compares.
func checkStore(t *testing.T, ds *Dataset, model map[int]Attrs) {
	t.Helper()
	for id := 0; id < ds.Len(); id++ {
		if got, want := ds.Attrs(id), model[id]; !got.Equal(want) {
			t.Fatalf("row %d: %v, want %v", id, got, want)
		}
	}
	s := &ds.attrs
	strRefs := make(map[string]int32)
	setRefs := make(map[uint32]int32)
	carried := make(map[int]int) // row → columns carrying it
	for name, c := range s.byName {
		if c.rows == 0 || c.name != name || s.byID[c.id] != c {
			t.Fatalf("column %q (id %d, %d rows) misfiled", name, c.id, c.rows)
		}
		n := 0
		for id := 0; id < ds.Len(); id++ {
			k, v := c.At(id)
			if k == 0 {
				continue
			}
			n++
			carried[id]++
			switch k {
			case AttrString:
				strRefs[s.strs[v]]++
			case AttrTags:
				setRefs[uint32(v)]++
			}
		}
		if n != c.rows {
			t.Fatalf("column %q counts %d rows, holds %d", c.name, c.rows, n)
		}
	}
	if live := len(s.byName) + len(s.idFree); live != len(s.byID) {
		t.Fatalf("column ids: %d columns + %d free != %d ids", len(s.byName), len(s.idFree), len(s.byID))
	}
	schemaRefs := make(map[uint32]int32)
	for id := 0; id < ds.Len(); id++ {
		cols := s.schema(id)
		if len(cols) != carried[id] {
			t.Fatalf("row %d: schema lists %d columns, %d carry it", id, len(cols), carried[id])
		}
		for i, ci := range cols {
			c := s.byID[ci]
			if c == nil || i > 0 && cols[i-1] >= ci {
				t.Fatalf("row %d: schema %v out of order or stale", id, cols)
			}
			if k, _ := c.At(id); k == 0 {
				t.Fatalf("row %d: schema lists column %q the row lacks", id, c.name)
			}
		}
		if id < len(s.rowSchema) && s.rowSchema[id] != 0 {
			schemaRefs[s.rowSchema[id]-1]++
		}
	}
	checkDict(t, "schema", &s.schemas, schemaRefs)
	checkDict(t, "tag set", &s.sets, setRefs)
	for code := range setRefs {
		for _, m := range s.sets.lists[code] {
			strRefs[s.strs[m]]++ // one reference per member, held by the set
		}
	}
	for str, code := range s.strCode {
		if s.strRefs[code] != strRefs[str] {
			t.Fatalf("string %q: %d references, %d uses", str, s.strRefs[code], strRefs[str])
		}
		delete(strRefs, str)
	}
	if len(strRefs) != 0 {
		t.Fatalf("strings in use but not in the dictionary: %v", strRefs)
	}
	if live := len(s.strCode) + len(s.strFree); live != len(s.strs) {
		t.Fatalf("string dictionary: %d entries + %d free != %d codes", len(s.strCode), len(s.strFree), len(s.strs))
	}
}

// checkDict compares a list dictionary's reference counts with the uses
// counted, and checks its key map and free list cover every code once.
func checkDict(t *testing.T, what string, d *listDict, uses map[uint32]int32) {
	t.Helper()
	for code, refs := range d.refs {
		if refs != uses[uint32(code)] {
			t.Fatalf("%s %d %v: %d references, %d uses", what, code, d.lists[code], refs, uses[uint32(code)])
		}
	}
	for key, code := range d.code {
		if d.refs[code] == 0 || string(d.keyOf(d.lists[code])) != key {
			t.Fatalf("%s %d: key map holds a free or mismatched code", what, code)
		}
	}
	if live := len(d.code) + len(d.free); live != len(d.lists) {
		t.Fatalf("%s dictionary: %d entries + %d free != %d codes", what, len(d.code), len(d.free), len(d.lists))
	}
}

// TestAttrColumnsChurn drives random SetAttrs/Delete/Insert against a map
// model: the materialised rows equal the model, every column's row count
// and every dictionary reference count is exact, and freed dictionary
// codes are reused rather than leaked.
func TestAttrColumnsChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := attrsDataset(300)
	model := map[int]Attrs{}
	words := []string{"", "a", "b", "hot", "sale", strings.Repeat("x", 300)}
	bag := func() Attrs {
		a := Attrs{}
		for f := 0; f < 6; f++ {
			if rng.Intn(3) == 0 {
				continue
			}
			name := string(rune('p' + f))
			switch rng.Intn(4) {
			case 0:
				a[name] = IntValue(rng.Int63n(5) - 2)
			case 1:
				a[name] = FloatValue(rng.NormFloat64())
			case 2:
				a[name] = StringValue(words[rng.Intn(len(words))])
			default:
				tags := make([]string, rng.Intn(4))
				for i := range tags {
					tags[i] = words[rng.Intn(len(words))]
				}
				a[name] = TagsValue(tags...)
			}
		}
		if rng.Intn(10) == 0 {
			a["rare"] = StringValue(words[rng.Intn(len(words))])
		}
		return a
	}
	for step := 0; step < 4000; step++ {
		id := rng.Intn(ds.Len())
		switch r := rng.Intn(12); {
		case r >= 10 && ds.Live(id):
			// Copy another row (or the row itself) through its view.
			from := rng.Intn(ds.Len())
			if r == 10 {
				from = id
			}
			if err := ds.SetAttrs(id, ds.AttrRow(from)); err != nil {
				t.Fatal(err)
			}
			if a := model[from]; a != nil {
				model[id] = a
			} else {
				delete(model, id)
			}
		case r < 6 && ds.Live(id):
			a := bag()
			if err := ds.SetAttrs(id, a); err != nil {
				t.Fatal(err)
			}
			if len(a) == 0 {
				a = nil
			}
			model[id] = a
		case r < 8 && ds.Live(id):
			if err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		default:
			if id := ds.Insert(Vector{1}); ds.Attrs(id) != nil {
				t.Fatalf("reused slot %d came back with attrs", id)
			}
		}
		if step%500 == 0 {
			checkStore(t, ds, model)
		}
	}
	checkStore(t, ds, model)
	for id := range model {
		if err := ds.SetAttrs(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s := &ds.attrs; len(s.byName) != 0 || len(s.strCode) != 0 || len(s.sets.code) != 0 || len(s.schemas.code) != 0 {
		t.Fatalf("store not empty after clearing every row: %d columns, %d strings, %d tag sets, %d schemas",
			len(s.byName), len(s.strCode), len(s.sets.code), len(s.schemas.code))
	}
}

// TestAttrColumnForms: a column is dense while a quarter of its id range
// carries the field and sparse otherwise, in both directions, and a
// field set on one high id costs no dense column.
func TestAttrColumnForms(t *testing.T) {
	ds := attrsDataset(100000)
	for id := 0; id < 8; id++ {
		if err := ds.SetAttrs(id, Attrs{"f": IntValue(int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	c := ds.attrs.Column("f")
	if _, _, dense := c.Dense(); !dense {
		t.Fatal("a column filled from id 0 is not dense")
	}
	if err := ds.SetAttrs(99999, Attrs{"f": IntValue(-1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, dense := c.Dense(); dense {
		t.Fatal("9 rows over 100000 ids stayed dense")
	}
	for id := 8; id < 25000; id++ {
		if err := ds.SetAttrs(id, Attrs{"f": IntValue(int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, dense := c.Dense(); !dense {
		t.Fatal("a quarter of the id range carrying the field did not densify")
	}
	for _, id := range []int{0, 7, 24999, 99999} {
		if k, _ := c.At(id); k != AttrInt {
			t.Fatalf("row %d lost its value across the form changes", id)
		}
	}

	// Many fields on one high id: one sparse entry each.
	wide := Attrs{}
	for f := 0; f < 2000; f++ {
		wide[strings.Repeat("k", 1+f%50)+string(rune('A'+f%26))+string(rune('a'+f/26))] = IntValue(int64(f))
	}
	if err := ds.SetAttrs(99998, wide); err != nil {
		t.Fatal(err)
	}
	for _, col := range ds.attrs.byName {
		if kinds, _, dense := col.Dense(); dense && col.name != "f" && len(kinds) > 0 {
			t.Fatalf("column %q of one row at id 99998 is dense (%d slots)", col.name, len(kinds))
		}
	}
	if !ds.Attrs(99998).Equal(wide) {
		t.Fatal("wide bag did not round-trip")
	}
}

// TestAttrColumnAppendAmortized: objects appended one at a time, each
// with attributes, grow their columns by amortized doubling — not by a
// copy of the whole column per row.
func TestAttrColumnAppendAmortized(t *testing.T) {
	ds := attrsDataset(1000)
	for id := 0; id < 1000; id++ {
		if err := ds.SetAttrs(id, Attrs{"a": IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	c := ds.attrs.Column("a")
	reallocs := 0
	for i := 0; i < 20000; i++ {
		before := cap(c.kinds)
		id := ds.Insert(Vector{0})
		if err := ds.SetAttrs(id, Attrs{"a": IntValue(2)}); err != nil {
			t.Fatal(err)
		}
		if cap(c.kinds) != before {
			reallocs++
		}
	}
	if reallocs > 40 {
		t.Fatalf("20000 appended rows reallocated the column %d times", reallocs)
	}
}

// TestCopyAttrsFromThenGrow: a cloned store's columns accept rows past
// their length (a clone's two arrays may differ in capacity).
func TestCopyAttrsFromThenGrow(t *testing.T) {
	src := attrsDataset(1000)
	for id := 0; id < 700; id++ {
		if err := src.SetAttrs(id, Attrs{"a": IntValue(int64(id)), "t": TagsValue("x", "y")}); err != nil {
			t.Fatal(err)
		}
	}
	dst := NewDataset(src.Space(), append([]Object(nil), src.Objects()...))
	_ = dst.Delete(3)
	dst.CopyAttrsFrom(src)
	if dst.Attrs(3) != nil || !dst.Attrs(4).Equal(src.Attrs(4)) {
		t.Fatal("CopyAttrsFrom copied a non-live row or lost a live one")
	}
	for id := 700; id < 1000; id++ {
		if err := dst.SetAttrs(id, Attrs{"a": IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if src.Attrs(800) != nil {
		t.Fatal("writes to the copy reached the source")
	}
	checkStore(t, dst, func() map[int]Attrs {
		m := map[int]Attrs{}
		for id := 0; id < 1000; id++ {
			if a := dst.Attrs(id); a != nil {
				m[id] = a
			}
		}
		return m
	}())
}

// TestSetAttrsRejectsUnframable: every length the codec frames in a u16
// is checked, a rejected bag leaves the row as it was, and the longest
// framable values are accepted.
func TestSetAttrsRejectsUnframable(t *testing.T) {
	long := strings.Repeat("x", MaxAttrLen+1)
	fields := Attrs{}
	for i := 0; i <= MaxAttrLen; i++ {
		fields[strconv.Itoa(i)] = IntValue(1)
	}
	bad := map[string]Attrs{
		"key":    {long: IntValue(1)},
		"string": {"s": StringValue(long)},
		"tag":    {"t": TagsValue("ok", long)},
		"tags":   {"t": TagsValue(make([]string, MaxAttrLen+1)...)},
		"fields": fields,
		"kind":   {"z": AttrValue{}},
	}
	ds := attrsDataset(2)
	keep := Attrs{"s": StringValue("kept")}
	if err := ds.SetAttrs(0, keep); err != nil {
		t.Fatal(err)
	}
	for name, a := range bad {
		if err := ds.SetAttrs(0, a); err == nil {
			t.Fatalf("%s: unframable bag accepted", name)
		}
		if !ds.Attrs(0).Equal(keep) {
			t.Fatalf("%s: rejected bag changed the row", name)
		}
	}
	edge := Attrs{long[:MaxAttrLen]: StringValue(long[:MaxAttrLen])}
	if err := ds.SetAttrs(1, edge); err != nil {
		t.Fatalf("longest framable bag: %v", err)
	}
}

// TestRowWorkIgnoresOtherColumns: deleting, rewriting and walking a row
// costs in proportion to the row's own fields. A store that also holds
// one row of 20 000 one-off fields runs a batch of deletes, re-inserts
// and a full walk of every row (what a snapshot encodes) about as fast
// as the same store without it.
func TestRowWorkIgnoresOtherColumns(t *testing.T) {
	const n = 2000
	build := func(wide bool) *Dataset {
		ds := attrsDataset(n + 1)
		for id := 0; id < n; id++ {
			if err := ds.SetAttrs(id, Attrs{"a": IntValue(int64(id)), "b": StringValue("x")}); err != nil {
				t.Fatal(err)
			}
		}
		if wide {
			bag := Attrs{}
			for f := 0; f < 20000; f++ {
				bag["w"+strconv.Itoa(f)] = IntValue(int64(f))
			}
			if err := ds.SetAttrs(n, bag); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	churn := func(ds *Dataset) time.Duration {
		start := time.Now()
		for id := 0; id < n; id += 2 {
			if err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
			if got := ds.Insert(Vector{0}); got != id {
				t.Fatalf("insert reused slot %d, want %d", got, id)
			}
			if err := ds.SetAttrs(id, Attrs{"a": IntValue(1), "b": StringValue("y")}); err != nil {
				t.Fatal(err)
			}
		}
		fields := 0
		for id := 0; id < n; id++ {
			r := ds.AttrRow(id)
			fields += r.AttrLen()
			for range r.AttrFields {
				fields--
			}
		}
		if fields != 0 {
			t.Fatal("AttrLen disagrees with AttrFields")
		}
		return time.Since(start)
	}
	best := func(wide bool) time.Duration {
		d := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			d = min(d, churn(build(wide)))
		}
		return d
	}
	plain, wide := best(false), best(true)
	if wide > 4*plain+time.Millisecond {
		t.Fatalf("one 20 000-field row slows row work on other rows from %v to %v", plain, wide)
	}
}
