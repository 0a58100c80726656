// Package plan implements filtered (hybrid) search: a small attribute-
// predicate language, a per-attribute selectivity estimator, and a
// planner that decides — per query — whether to filter before, during,
// or after the metric-index probe. The three strategies trade the
// paper's cost measures against each other (compdists saved by
// rejecting candidates early versus the pruning power of the index),
// and all three return exactly the same answer: the filtered subset of
// the metric query's result. See docs/HYBRID.md.
package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"metricindex/internal/core"
)

// The predicate grammar (case-insensitive keywords, ASCII):
//
//	expr    := and { "OR" and }
//	and     := term { "AND" term }
//	term    := "(" expr ")" | leaf
//	leaf    := ident cmp value | ident "IN" "(" value { "," value } ")"
//	cmp     := "=" | "!=" | "<" | "<=" | ">" | ">="
//	value   := number | quoted-string | bareword
//
// Idents name attribute fields. Numeric literals compare against int
// and float attributes (in the widened float64 domain); string
// literals compare against string attributes and tag sets (for tags,
// "=" means contains and IN means contains-any). A leaf over a missing
// field or a mismatched type evaluates to false — predicates are total
// and never error at evaluation time.

type opCode uint8

const (
	opEq opCode = iota + 1
	opNe
	opLt
	opLe
	opGt
	opGe
	opIn
)

var opNames = map[opCode]string{
	opEq: "=", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=", opIn: "IN",
}

type nodeKind uint8

const (
	nodeLeaf nodeKind = iota + 1
	nodeAnd
	nodeOr
)

// operand is one pre-parsed literal of a leaf.
type operand struct {
	num   float64
	str   string
	isNum bool
}

type node struct {
	kind nodeKind
	kids []node
	// leaf fields:
	field string
	op    opCode
	val   operand
	set   []operand // IN list
}

// Predicate is a parsed filter expression. Parse it once; the query
// paths bind it to a dataset's attribute columns per query (Compile) and
// test rows through the resulting Matcher. Eval over a bag is the
// reference semantics the Matcher reproduces.
type Predicate struct {
	root node
	src  string // canonical form, the cache-key component
}

// String returns the canonical form of the predicate: normalized
// spacing, uppercase keywords, quoted string literals. Two predicates
// with equal canonical forms are semantically identical, which is what
// lets the answer cache key on it.
func (p *Predicate) String() string { return p.src }

// Eval reports whether an object carrying the given attribute bag
// satisfies the predicate. It is total: any bag (including nil) yields
// a boolean, never a panic or an error. It is the reference semantics:
// Matcher.Match(id) equals Eval(ds.Attrs(id)) for every row.
//
//metriclint:noalloc
func (p *Predicate) Eval(a core.Attrs) bool { return p.root.eval(a) }

func (n *node) eval(a core.Attrs) bool {
	switch n.kind {
	case nodeAnd:
		for i := range n.kids {
			if !n.kids[i].eval(a) {
				return false
			}
		}
		return true
	case nodeOr:
		for i := range n.kids {
			if n.kids[i].eval(a) {
				return true
			}
		}
		return false
	}
	v, ok := a[n.field]
	if !ok {
		return false
	}
	if n.op == opIn {
		for i := range n.set {
			if matchEq(v, &n.set[i]) {
				return true
			}
		}
		return false
	}
	switch n.op {
	case opEq:
		return matchEq(v, &n.val)
	case opNe:
		return !matchEq(v, &n.val)
	}
	// Ordering comparisons: numeric attrs against numeric literals,
	// string attrs lexicographically against string literals.
	if n.val.isNum {
		x, numeric := v.Numeric()
		if !numeric {
			return false
		}
		return matchCmp(n.op, cmpFloat(x, n.val.num))
	}
	if v.Kind() != core.AttrString {
		return false
	}
	return matchCmp(n.op, strings.Compare(v.Str(), n.val.str))
}

// matchEq is the equality test of one attribute value against one
// literal: numeric literals match numeric attrs, string literals match
// string attrs and tag sets (set containment).
//
//metriclint:noalloc
func matchEq(v core.AttrValue, lit *operand) bool {
	if lit.isNum {
		x, numeric := v.Numeric()
		return numeric && x == lit.num
	}
	switch v.Kind() {
	case core.AttrString:
		return v.Str() == lit.str
	case core.AttrTags:
		for _, t := range v.Tags() {
			if t == lit.str {
				return true
			}
		}
	}
	return false
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return 2 // NaN involved: no ordering relation holds
}

func matchCmp(op opCode, c int) bool {
	switch op {
	case opLt:
		return c == -1
	case opLe:
		return c == -1 || c == 0
	case opGt:
		return c == 1
	case opGe:
		return c == 1 || c == 0
	}
	return false
}

// ---- parser ----

const maxParseDepth = 64

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokOp // one of = != < <= > >=
)

type token struct {
	kind tokKind
	text string
	op   opCode
	pos  int
}

type parser struct {
	in  string
	pos int
	tok token
}

// Parse compiles a filter expression. It rejects syntax errors,
// over-deep nesting, and empty input; it never panics, whatever the
// input (FuzzPredicateParse holds it to that).
func Parse(src string) (*Predicate, error) {
	p := &parser{in: src}
	if err := p.next(); err != nil {
		return nil, err
	}
	root, err := p.parseOr(0)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("plan: trailing input at offset %d", p.tok.pos)
	}
	pred := &Predicate{root: root}
	var b strings.Builder
	printNode(&b, &pred.root, false)
	pred.src = b.String()
	return pred, nil
}

func (p *parser) parseOr(depth int) (node, error) {
	if depth > maxParseDepth {
		return node{}, fmt.Errorf("plan: filter nested deeper than %d levels", maxParseDepth)
	}
	first, err := p.parseAnd(depth + 1)
	if err != nil {
		return node{}, err
	}
	kids := []node{first}
	for p.keyword("OR") {
		if err := p.next(); err != nil {
			return node{}, err
		}
		k, err := p.parseAnd(depth + 1)
		if err != nil {
			return node{}, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return node{kind: nodeOr, kids: kids}, nil
}

func (p *parser) parseAnd(depth int) (node, error) {
	if depth > maxParseDepth {
		return node{}, fmt.Errorf("plan: filter nested deeper than %d levels", maxParseDepth)
	}
	first, err := p.parseTerm(depth + 1)
	if err != nil {
		return node{}, err
	}
	kids := []node{first}
	for p.keyword("AND") {
		if err := p.next(); err != nil {
			return node{}, err
		}
		k, err := p.parseTerm(depth + 1)
		if err != nil {
			return node{}, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return node{kind: nodeAnd, kids: kids}, nil
}

func (p *parser) parseTerm(depth int) (node, error) {
	if depth > maxParseDepth {
		return node{}, fmt.Errorf("plan: filter nested deeper than %d levels", maxParseDepth)
	}
	if p.tok.kind == tokLParen {
		if err := p.next(); err != nil {
			return node{}, err
		}
		inner, err := p.parseOr(depth + 1)
		if err != nil {
			return node{}, err
		}
		if p.tok.kind != tokRParen {
			return node{}, fmt.Errorf("plan: missing ')' at offset %d", p.tok.pos)
		}
		if err := p.next(); err != nil {
			return node{}, err
		}
		return inner, nil
	}
	if p.tok.kind != tokIdent {
		return node{}, fmt.Errorf("plan: expected field name at offset %d", p.tok.pos)
	}
	field := p.tok.text
	if strings.EqualFold(field, "AND") || strings.EqualFold(field, "OR") || strings.EqualFold(field, "IN") {
		return node{}, fmt.Errorf("plan: keyword %q cannot name a field (offset %d)", field, p.tok.pos)
	}
	if err := p.next(); err != nil {
		return node{}, err
	}
	if p.keyword("IN") {
		if err := p.next(); err != nil {
			return node{}, err
		}
		if p.tok.kind != tokLParen {
			return node{}, fmt.Errorf("plan: IN needs '(' at offset %d", p.tok.pos)
		}
		if err := p.next(); err != nil {
			return node{}, err
		}
		var set []operand
		for {
			v, err := p.parseValue()
			if err != nil {
				return node{}, err
			}
			set = append(set, v)
			if p.tok.kind == tokComma {
				if err := p.next(); err != nil {
					return node{}, err
				}
				continue
			}
			break
		}
		if p.tok.kind != tokRParen {
			return node{}, fmt.Errorf("plan: IN list missing ')' at offset %d", p.tok.pos)
		}
		if err := p.next(); err != nil {
			return node{}, err
		}
		return node{kind: nodeLeaf, field: field, op: opIn, set: set}, nil
	}
	if p.tok.kind != tokOp {
		return node{}, fmt.Errorf("plan: expected comparison after %q (offset %d)", field, p.tok.pos)
	}
	op := p.tok.op
	if err := p.next(); err != nil {
		return node{}, err
	}
	v, err := p.parseValue()
	if err != nil {
		return node{}, err
	}
	return node{kind: nodeLeaf, field: field, op: op, val: v}, nil
}

func (p *parser) parseValue() (operand, error) {
	switch p.tok.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
			return operand{}, fmt.Errorf("plan: bad number %q at offset %d", p.tok.text, p.tok.pos)
		}
		if err2 := p.next(); err2 != nil {
			return operand{}, err2
		}
		return operand{num: f, isNum: true}, nil
	case tokString:
		s := p.tok.text
		if err := p.next(); err != nil {
			return operand{}, err
		}
		return operand{str: s}, nil
	case tokIdent:
		// Bareword value (unquoted string), unless it is a keyword.
		s := p.tok.text
		if strings.EqualFold(s, "AND") || strings.EqualFold(s, "OR") || strings.EqualFold(s, "IN") {
			return operand{}, fmt.Errorf("plan: keyword %q needs quotes to be a value (offset %d)", s, p.tok.pos)
		}
		if err := p.next(); err != nil {
			return operand{}, err
		}
		return operand{str: s}, nil
	}
	return operand{}, fmt.Errorf("plan: expected value at offset %d", p.tok.pos)
}

// keyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) next() error {
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
	start := p.pos
	if p.pos >= len(p.in) {
		p.tok = token{kind: tokEOF, pos: start}
		return nil
	}
	c := p.in[p.pos]
	switch {
	case c == '(':
		p.pos++
		p.tok = token{kind: tokLParen, pos: start}
	case c == ')':
		p.pos++
		p.tok = token{kind: tokRParen, pos: start}
	case c == ',':
		p.pos++
		p.tok = token{kind: tokComma, pos: start}
	case c == '=':
		p.pos++
		p.tok = token{kind: tokOp, op: opEq, pos: start}
	case c == '!':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != '=' {
			return fmt.Errorf("plan: stray '!' at offset %d", start)
		}
		p.pos += 2
		p.tok = token{kind: tokOp, op: opNe, pos: start}
	case c == '<':
		p.pos++
		op := opLt
		if p.pos < len(p.in) && p.in[p.pos] == '=' {
			p.pos++
			op = opLe
		}
		p.tok = token{kind: tokOp, op: op, pos: start}
	case c == '>':
		p.pos++
		op := opGt
		if p.pos < len(p.in) && p.in[p.pos] == '=' {
			p.pos++
			op = opGe
		}
		p.tok = token{kind: tokOp, op: op, pos: start}
	case c == '"':
		p.pos++
		var b strings.Builder
		for {
			if p.pos >= len(p.in) {
				return fmt.Errorf("plan: unterminated string at offset %d", start)
			}
			ch := p.in[p.pos]
			if ch == '"' {
				p.pos++
				break
			}
			if ch == '\\' {
				if p.pos+1 >= len(p.in) {
					return fmt.Errorf("plan: unterminated escape at offset %d", p.pos)
				}
				p.pos++
				ch = p.in[p.pos]
				if ch != '"' && ch != '\\' {
					return fmt.Errorf("plan: unsupported escape \\%c at offset %d", ch, p.pos)
				}
			}
			b.WriteByte(ch)
			p.pos++
		}
		p.tok = token{kind: tokString, text: b.String(), pos: start}
	case c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9'):
		p.pos++
		for p.pos < len(p.in) {
			ch := p.in[p.pos]
			if (ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' || ch == 'E' ||
				ch == '-' || ch == '+' {
				p.pos++
				continue
			}
			break
		}
		p.tok = token{kind: tokNumber, text: p.in[start:p.pos], pos: start}
	case isIdentStart(c):
		p.pos++
		for p.pos < len(p.in) && isIdentPart(p.in[p.pos]) {
			p.pos++
		}
		p.tok = token{kind: tokIdent, text: p.in[start:p.pos], pos: start}
	default:
		return fmt.Errorf("plan: unexpected byte %q at offset %d", c, start)
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.' || c == '-'
}

// ---- canonical printing ----

// printNode renders the canonical form. parenthesize is set when an OR
// node appears under an AND, the only place precedence needs parens.
func printNode(b *strings.Builder, n *node, parenthesize bool) {
	switch n.kind {
	case nodeOr:
		if parenthesize {
			b.WriteByte('(')
		}
		for i := range n.kids {
			if i > 0 {
				b.WriteString(" OR ")
			}
			printNode(b, &n.kids[i], false)
		}
		if parenthesize {
			b.WriteByte(')')
		}
	case nodeAnd:
		for i := range n.kids {
			if i > 0 {
				b.WriteString(" AND ")
			}
			printNode(b, &n.kids[i], n.kids[i].kind == nodeOr)
		}
	default:
		b.WriteString(n.field)
		if n.op == opIn {
			b.WriteString(" IN (")
			for i := range n.set {
				if i > 0 {
					b.WriteString(", ")
				}
				printOperand(b, &n.set[i])
			}
			b.WriteByte(')')
			return
		}
		b.WriteByte(' ')
		b.WriteString(opNames[n.op])
		b.WriteByte(' ')
		printOperand(b, &n.val)
	}
}

func printOperand(b *strings.Builder, v *operand) {
	if v.isNum {
		b.WriteString(strconv.FormatFloat(v.num, 'g', -1, 64))
		return
	}
	// Quote with the lexer's own (minimal) escape set — only '"' and
	// '\' — so every canonical form re-parses to itself, whatever bytes
	// the string holds.
	b.WriteByte('"')
	for i := 0; i < len(v.str); i++ {
		c := v.str[i]
		if c == '"' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	b.WriteByte('"')
}
