// Package wiresym verifies wire-codec symmetry: each encoder on the
// store.Writer codec (snapshot payloads, volume images, RAF state,
// dataset files) must have a decoder counterpart whose
// Reader calls mirror the Writer calls in type and order. Today that
// drift is only caught at runtime by round-trip tests; this pass
// catches it at lint time, including in branches (node-tag switches)
// and repeated groups (per-row loops).
//
// It also freezes the on-disk constants: the WAL op numbers, the store
// object-codec tags and the container magics (docs/PERSISTENCE.md) may
// not be renumbered.
//
// # How functions are matched
//
// A function is a codec half when it drives exactly one Writer or
// exactly one Reader value (named types Writer/Reader). Halves pair by
// a normalized name key: encodeX/decodeX/serializeX/loadX/readX/
// appendX/restoreX/saveX map to "x", EncodeSnapshot maps to its
// receiver type name (EncodeSnapshot on BKT pairs with loadBKT), and so
// does a bare verb on a method (Serialize on Pager pairs with
// LoadPager); package-level bare verbs (Save, Load) pair with each
// other. Functions driving several streams at once (the snapshot
// container assembler, the WAL framer) are skipped along with their
// counterparts — their symmetry is covered by the section/record codecs
// they delegate to.
//
// # What is compared
//
// The wire-op sequence, structurally: Writer.U32 must meet Reader.U32
// (Count counts as U32, Bool as U8, the three attrs calls as one op),
// a call forwarding the stream to encodeChild must meet a call to
// decodeChild, loops must meet loops.
// Error-guard branches and value-validation code are invisible. A
// branch whose arms each write the same leading tag matches a decoder
// that reads the tag once and switches on it.
package wiresym

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"metricindex/internal/analysis"
)

// Analyzer is the wiresym pass.
var Analyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc: "persist encoders and decoders must mirror each other's wire-op " +
		"sequences; frozen on-disk constants must not be renumbered",
	Run: run,
}

// Frozen on-disk constants (docs/PERSISTENCE.md). Matched by constant
// name wherever it is declared.
var frozenInts = map[string]int64{
	"OpAdd":        1,
	"OpRemove":     2,
	"OpInsert":     3,
	"OpDelete":     4,
	"OpSwap":       5,
	"OpSetAttrs":   6,
	"tagVector":    1,
	"tagIntVector": 2,
	"tagWord":      3,
	"tagVector32":  4,
}

var frozenStrings = map[string]string{
	"walMagic":      "MXWAL1",
	"snapshotMagic": "MXSNAP",
	"volumeMagic":   "MXVOL1",
}

// opNames maps Writer/Reader method names to the normalized wire op
// they move. Methods absent here (Err, Remaining, ExpectEOF, Bytes,
// fail, take) move no framed value and are invisible.
var opNames = map[string]string{
	"U8": "U8", "Bool": "U8",
	"U16": "U16",
	"U32": "U32", "Count": "U32",
	"U64": "U64", "I64": "I64", "F64": "F64",
	"Blob": "Blob", "String": "String", "Raw": "Raw",
	"Attrs": "Attrs", "RowAttrs": "Attrs", "AttrsSpan": "Attrs",
	"Object": "Object", "Objects": "Objects",
	"Ints": "Ints", "Int32s": "Int32s", "Pivots": "Pivots",
	"PageIDs": "PageIDs", "Floats": "Floats",
}

func run(pass *analysis.Pass) error {
	checkFrozen(pass)

	encoders := make(map[string]*codec)
	decoders := make(map[string]*codec)
	skipped := make(map[string]bool)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isWireSelfMethod(pass, fn) {
				continue
			}
			x := &extractor{pass: pass, writers: map[types.Object]bool{}, readers: map[types.Object]bool{}}
			items := normalize(x.stmtList(fn.Body.List))
			if len(x.writers) == 0 && len(x.readers) == 0 {
				continue // not a codec half
			}
			key := pairKey(fn)
			if len(x.writers) > 0 && len(x.readers) > 0 ||
				len(x.writers) > 1 || len(x.readers) > 1 {
				skipped[key] = true // multi-stream assembler; delegates carry the invariant
				continue
			}
			c := &codec{fn: fn, items: items}
			if len(x.writers) == 1 {
				if encoders[key] == nil {
					encoders[key] = c
				}
			} else {
				if decoders[key] == nil {
					decoders[key] = c
				}
			}
		}
	}

	keys := make([]string, 0, len(encoders))
	for k := range encoders {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		enc := encoders[k]
		dec := decoders[k]
		if dec == nil {
			if !skipped[k] {
				pass.Reportf(enc.fn.Name.Pos(), "encoder %s has no decoder counterpart (pair key %q)", enc.fn.Name.Name, k)
			}
			continue
		}
		if msg, pos := diffSeq(pass, enc.items, dec.items); msg != "" {
			if !pos.IsValid() {
				pos = enc.fn.Name.Pos()
			}
			pass.Reportf(pos, "wire drift between %s and %s: %s", enc.fn.Name.Name, dec.fn.Name.Name, msg)
		}
	}
	decKeys := make([]string, 0, len(decoders))
	for k := range decoders {
		decKeys = append(decKeys, k)
	}
	sort.Strings(decKeys)
	for _, k := range decKeys {
		if encoders[k] == nil && !skipped[k] {
			dec := decoders[k]
			pass.Reportf(dec.fn.Name.Pos(), "decoder %s has no encoder counterpart (pair key %q)", dec.fn.Name.Name, k)
		}
	}
	return nil
}

// ---- frozen constants ----

func checkFrozen(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					cst, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					if want, frozen := frozenInts[name.Name]; frozen {
						if got, exact := constant.Int64Val(cst.Val()); !exact || got != want {
							pass.Reportf(name.Pos(), "frozen on-disk constant %s renumbered to %s (must stay %d, see docs/PERSISTENCE.md)",
								name.Name, cst.Val(), want)
						}
					}
					if want, frozen := frozenStrings[name.Name]; frozen && cst.Val().Kind() == constant.String {
						if got := constant.StringVal(cst.Val()); got != want {
							pass.Reportf(name.Pos(), "frozen on-disk constant %s changed to %q (must stay %q, see docs/PERSISTENCE.md)",
								name.Name, got, want)
						}
					}
				}
			}
		}
	}
}

// ---- codec collection ----

type codec struct {
	fn    *ast.FuncDecl
	items []item
}

type itemKind int

const (
	opItem itemKind = iota
	callItem
	loopItem
	branchItem
)

type item struct {
	kind  itemKind
	name  string // normalized op name or call pair key
	label string // as written in the source, for messages
	pos   token.Pos
	body  []item   // loopItem
	arms  [][]item // branchItem
}

// isWireSelfMethod reports whether fn is a method on Writer/Reader —
// the wire primitives themselves, whose internals are not codecs.
func isWireSelfMethod(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fn.Recv.List[0].Type]
	if !ok {
		return false
	}
	return wireKind(tv.Type) != 0
}

// wireKind classifies a type: 1 = Writer, 2 = Reader, 0 = neither.
// Matched by named-type name plus a U32 wire-op method, so testdata
// doubles count but io.Writer, bufio.Writer, csv.Writer and friends do
// not.
func wireKind(t types.Type) int {
	if t == nil {
		return 0
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return 0
	}
	kind := 0
	switch n.Obj().Name() {
	case "Writer":
		kind = 1
	case "Reader":
		kind = 2
	default:
		return 0
	}
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == "U32" {
			return kind
		}
	}
	return 0
}

// pairKey derives the key under which a codec half seeks its
// counterpart.
func pairKey(fn *ast.FuncDecl) string {
	if fn.Name.Name == "EncodeSnapshot" && fn.Recv != nil {
		return strings.ToLower(recvTypeName(fn))
	}
	key := nameKey(fn.Name.Name)
	if key == "" && fn.Recv != nil {
		return strings.ToLower(recvTypeName(fn))
	}
	return key
}

func recvTypeName(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// nameKey strips the direction prefix off a codec function name:
// encodeGroups and decodeGroups both become "groups", loadMemEPT
// becomes "ept". A bare verb (Save, Load, Serialize) leaves "": the
// package's own format, or the receiver's for a method (pairKey).
func nameKey(name string) string {
	l := strings.ToLower(name)
	for _, p := range []string{"encode", "decode", "serialize", "restore", "append", "write", "read", "load", "save"} {
		if rest, ok := strings.CutPrefix(l, p); ok {
			l = rest
			break
		}
	}
	return strings.TrimPrefix(l, "mem")
}

// ---- extraction ----

type extractor struct {
	pass    *analysis.Pass
	writers map[types.Object]bool
	readers map[types.Object]bool
	anon    int
}

func (x *extractor) stmtList(list []ast.Stmt) []item {
	var items []item
	for i := 0; i < len(list); i++ {
		s := list[i]
		// An if-body ending in return/continue/break splits the rest of
		// the block into the implicit else arm: the encoder idiom
		// `if o == nil { w.U8(0); continue }; w.U8(1); ...`.
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && terminates(ifs.Body) && i+1 < len(list) {
			if ifs.Init != nil {
				items = append(items, x.stmt(ifs.Init)...)
			}
			items = append(items, x.exprItems(ifs.Cond)...)
			arms := [][]item{x.stmtList(ifs.Body.List), x.stmtList(list[i+1:])}
			return append(items, item{kind: branchItem, pos: ifs.Pos(), arms: arms})
		}
		items = append(items, x.stmt(s)...)
	}
	return items
}

func (x *extractor) stmt(s ast.Stmt) []item {
	var items []item
	switch st := s.(type) {
	case nil:
	case *ast.IfStmt:
		if st.Init != nil {
			items = append(items, x.stmt(st.Init)...)
		}
		items = append(items, x.exprItems(st.Cond)...)
		arms := [][]item{x.stmtList(st.Body.List)}
		if st.Else != nil {
			arms = append(arms, x.stmt(st.Else))
		}
		items = append(items, item{kind: branchItem, pos: st.Pos(), arms: arms})
	case *ast.SwitchStmt:
		if st.Init != nil {
			items = append(items, x.stmt(st.Init)...)
		}
		if st.Tag != nil {
			items = append(items, x.exprItems(st.Tag)...)
		}
		var arms [][]item
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				var arm []item
				for _, e := range cc.List {
					arm = append(arm, x.exprItems(e)...)
				}
				arm = append(arm, x.stmtList(cc.Body)...)
				arms = append(arms, arm)
			}
		}
		items = append(items, item{kind: branchItem, pos: st.Pos(), arms: arms})
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			items = append(items, x.stmt(st.Init)...)
		}
		items = append(items, x.stmt(st.Assign)...)
		var arms [][]item
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				arms = append(arms, x.stmtList(cc.Body))
			}
		}
		items = append(items, item{kind: branchItem, pos: st.Pos(), arms: arms})
	case *ast.SelectStmt:
		var arms [][]item
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				var arm []item
				if cc.Comm != nil {
					arm = append(arm, x.stmt(cc.Comm)...)
				}
				arm = append(arm, x.stmtList(cc.Body)...)
				arms = append(arms, arm)
			}
		}
		items = append(items, item{kind: branchItem, pos: st.Pos(), arms: arms})
	case *ast.ForStmt:
		if st.Init != nil {
			items = append(items, x.stmt(st.Init)...)
		}
		body := x.stmtList(st.Body.List)
		if st.Cond != nil {
			body = append(x.exprItems(st.Cond), body...)
		}
		if st.Post != nil {
			body = append(body, x.stmt(st.Post)...)
		}
		items = append(items, item{kind: loopItem, pos: st.Pos(), body: body})
	case *ast.RangeStmt:
		items = append(items, x.exprItems(st.X)...)
		items = append(items, item{kind: loopItem, pos: st.Pos(), body: x.stmtList(st.Body.List)})
	case *ast.BlockStmt:
		items = append(items, x.stmtList(st.List)...)
	case *ast.LabeledStmt:
		items = append(items, x.stmt(st.Stmt)...)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			items = append(items, x.exprItems(r)...)
		}
	case *ast.ExprStmt:
		items = append(items, x.exprItems(st.X)...)
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			items = append(items, x.exprItems(l)...)
		}
		for _, r := range st.Rhs {
			items = append(items, x.exprItems(r)...)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						items = append(items, x.exprItems(v)...)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		items = append(items, x.exprItems(st.X)...)
	case *ast.SendStmt:
		items = append(items, x.exprItems(st.Chan)...)
		items = append(items, x.exprItems(st.Value)...)
	case *ast.DeferStmt:
		items = append(items, x.exprItems(st.Call)...)
	case *ast.GoStmt:
		items = append(items, x.exprItems(st.Call)...)
	}
	return items
}

func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

func (x *extractor) exprItems(e ast.Expr) []item {
	var items []item
	x.walkExpr(e, &items)
	return items
}

func (x *extractor) walkExpr(e ast.Expr, items *[]item) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			x.call(v, items)
			return false // call handles its own argument order
		}
		return true
	})
}

// call emits the item(s) for one call expression and walks its
// arguments, preserving source order.
func (x *extractor) call(call *ast.CallExpr, items *[]item) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if wk := wireKind(x.pass.TypesInfo.Types[sel.X].Type); wk != 0 {
			x.track(wk, sel.X)
			if norm, isOp := opNames[sel.Sel.Name]; isOp {
				*items = append(*items, item{kind: opItem, name: norm, label: sel.Sel.Name, pos: call.Pos()})
			}
			for _, a := range call.Args {
				x.walkExpr(a, items)
			}
			return
		}
	}
	passesWire := false
	for _, a := range call.Args {
		if wk := wireKind(x.pass.TypesInfo.Types[a].Type); wk != 0 && isWireRef(a) {
			passesWire = true
			x.track(wk, a)
		}
	}
	if passesWire {
		name := calleeName(call)
		*items = append(*items, item{kind: callItem, name: nameKey(name), label: name, pos: call.Pos()})
	}
	x.walkExpr(call.Fun, items)
	for _, a := range call.Args {
		x.walkExpr(a, items)
	}
}

// isWireRef keeps identity tracking to plain variable/field references;
// constructor results and other rvalues get anonymous identities where
// tracked.
func isWireRef(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.UnaryExpr:
		return true
	}
	return false
}

func (x *extractor) track(wk int, e ast.Expr) {
	obj := rootObject(x.pass, e)
	if obj == nil {
		// Distinct anonymous identity per occurrence: drives the
		// function into the multi-stream skip path, never a false pair.
		x.anon++
		obj = types.NewVar(token.NoPos, nil, fmt.Sprintf("anon%d", x.anon), nil)
	}
	if wk == 1 {
		x.writers[obj] = true
	} else {
		x.readers[obj] = true
	}
}

func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch v := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[v]
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[v]; sel != nil {
			return sel.Obj()
		}
		return pass.TypesInfo.Uses[v.Sel]
	case *ast.UnaryExpr:
		return rootObject(pass, v.X)
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// ---- normalization and comparison ----

// normalize drops wire-inactive structure: empty loops and branch arms
// vanish, single-arm branches splice inline (an error guard around a
// read is the read).
func normalize(items []item) []item {
	var out []item
	for _, it := range items {
		switch it.kind {
		case loopItem:
			body := normalize(it.body)
			if len(body) == 0 {
				continue
			}
			it.body = body
			out = append(out, it)
		case branchItem:
			var arms [][]item
			for _, a := range it.arms {
				if na := normalize(a); len(na) > 0 {
					arms = append(arms, na)
				}
			}
			switch len(arms) {
			case 0:
			case 1:
				out = append(out, arms[0]...)
			default:
				it.arms = arms
				out = append(out, it)
			}
		default:
			out = append(out, it)
		}
	}
	return out
}

// diffSeq compares two normalized item sequences, returning a
// description and anchor position of the first divergence ("" when
// symmetric).
func diffSeq(pass *analysis.Pass, enc, dec []item) (string, token.Pos) {
	i, j := 0, 0
	for i < len(enc) || j < len(dec) {
		if i >= len(enc) {
			d := dec[j]
			return fmt.Sprintf("decoder reads %s with no matching write", describe(pass, d)), d.pos
		}
		if j >= len(dec) {
			e := enc[i]
			return fmt.Sprintf("encoder writes %s with no matching read", describe(pass, e)), e.pos
		}
		e, d := enc[i], dec[j]
		// Tag hoisting: every encoder arm writes the same leading tag
		// the decoder reads once before switching (or vice versa).
		if e.kind == branchItem && d.kind == opItem {
			if ne, ok := hoist(e, d.name); ok {
				enc = splice(enc, i, ne)
				j++
				continue
			}
		}
		if d.kind == branchItem && e.kind == opItem {
			if nd, ok := hoist(d, e.name); ok {
				dec = splice(dec, j, nd)
				i++
				continue
			}
		}
		if e.kind != d.kind ||
			(e.kind == opItem && e.name != d.name) ||
			(e.kind == callItem && e.name != d.name) {
			return fmt.Sprintf("encoder writes %s where decoder reads %s",
				describe(pass, e), describe(pass, d)), e.pos
		}
		switch e.kind {
		case loopItem:
			if msg, pos := diffSeq(pass, e.body, d.body); msg != "" {
				return "inside repeated group: " + msg, pos
			}
		case branchItem:
			if len(e.arms) != len(d.arms) {
				return fmt.Sprintf("encoder branch has %d wire-active arms, decoder has %d", len(e.arms), len(d.arms)), e.pos
			}
			for k := range e.arms {
				if msg, pos := diffSeq(pass, e.arms[k], d.arms[k]); msg != "" {
					return fmt.Sprintf("in branch arm %d: %s", k+1, msg), pos
				}
			}
		}
		i++
		j++
	}
	return "", token.NoPos
}

// hoist strips opName off the front of every arm of branch b, returning
// the renormalized remainder.
func hoist(b item, opName string) ([]item, bool) {
	arms := make([][]item, 0, len(b.arms))
	for _, a := range b.arms {
		if len(a) == 0 || a[0].kind != opItem || a[0].name != opName {
			return nil, false
		}
		arms = append(arms, a[1:])
	}
	b.arms = arms
	return normalize([]item{b}), true
}

func splice(list []item, i int, repl []item) []item {
	out := make([]item, 0, len(list)-1+len(repl))
	out = append(out, list[:i]...)
	out = append(out, repl...)
	out = append(out, list[i+1:]...)
	return out
}

func describe(pass *analysis.Pass, it item) string {
	at := ""
	if p := pass.Fset.Position(it.pos); p.IsValid() {
		at = fmt.Sprintf(" (%s:%d)", filepath.Base(p.Filename), p.Line)
	}
	switch it.kind {
	case opItem:
		if it.label != it.name {
			return fmt.Sprintf("%s [%s]%s", it.name, it.label, at)
		}
		return it.name + at
	case callItem:
		return fmt.Sprintf("a %s(...) call%s", it.label, at)
	case loopItem:
		return "a repeated group" + at
	case branchItem:
		return "a branch" + at
	}
	return "?"
}
