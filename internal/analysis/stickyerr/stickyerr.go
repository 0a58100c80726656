// Package stickyerr enforces error consumption in the durability
// packages (persist, store, epoch) and in dataset, whose files decode
// through the same codec. The wire codec is sticky-error by
// design — a dropped error there is silent corruption — so inside these
// packages:
//
//   - a call whose results include an error must not be used as a bare
//     statement (or go statement); discarding deliberately takes an
//     explicit `_ =` assignment. Deferred calls are exempt: `defer
//     f.Close()` is the visible best-effort cleanup idiom.
//   - a function that reads values from a persist-style sticky Reader
//     must consult its error (Err() or the err field) or hand the
//     reader on (argument, return, stored field) for the caller to
//     check.
package stickyerr

import (
	"go/ast"
	"go/types"

	"metricindex/internal/analysis"
)

// Analyzer is the stickyerr pass.
var Analyzer = &analysis.Analyzer{
	Name: "stickyerr",
	Doc: "in persist/store/epoch/dataset, error results must be consumed and " +
		"sticky Reader errors must be checked before decoded values are trusted",
	Run: run,
}

// checkedPackages are the package names (not paths) the analyzer
// applies to — the durability layer and the dataset file codec.
var checkedPackages = map[string]bool{
	"persist": true,
	"store":   true,
	"epoch":   true,
	"dataset": true,
}

func run(pass *analysis.Pass) error {
	if !checkedPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					reportDropped(pass, call, "")
				}
			case *ast.GoStmt:
				reportDropped(pass, st.Call, "go ")
			}
			return true
		})
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isReaderMethod(pass, fn) {
				continue
			}
			checkReaderErr(pass, fn)
		}
	}
	return nil
}

// reportDropped flags a statement-position call whose result tuple
// contains an error.
func reportDropped(pass *analysis.Pass, call *ast.CallExpr, prefix string) {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return
	}
	if !resultsIncludeError(tv.Type) {
		return
	}
	pass.Reportf(call.Pos(), "%s%s drops its error result; handle it or discard explicitly with `_ =`",
		prefix, callName(call))
}

func resultsIncludeError(t types.Type) bool {
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if isErrorType(rt.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name + "()"
	case *ast.SelectorExpr:
		return f.Sel.Name + "()"
	default:
		return "call"
	}
}

// checkReaderErr applies the sticky-Reader rule to one function: for
// every sticky-reader variable it reads values from, the function must
// either consult the reader's error or pass the reader along.
func checkReaderErr(pass *analysis.Pass, fn *ast.FuncDecl) {
	type state struct {
		reads     bool
		consulted bool
		firstRead ast.Node
		name      string
	}
	readers := make(map[types.Object]*state)
	get := func(obj types.Object) *state {
		if !isStickyReader(obj.Type()) {
			return nil
		}
		st := readers[obj]
		if st == nil {
			st = &state{name: obj.Name()}
			readers[obj] = st
		}
		return st
	}
	rootObj := func(e ast.Expr) types.Object {
		if id, ok := e.(*ast.Ident); ok {
			return pass.TypesInfo.Uses[id]
		}
		return nil
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			// Method calls on a reader: Err consults, everything else
			// that returns a value is a read.
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if obj := rootObj(sel.X); obj != nil {
					if st := get(obj); st != nil {
						switch sel.Sel.Name {
						case "Err":
							st.consulted = true
						case "Remaining", "ExpectEOF", "fail":
							// ExpectEOF poisons, Err still must be read
							// somewhere — but these are not value reads.
						default:
							if !st.reads {
								st.reads = true
								st.firstRead = e
							}
						}
						return true
					}
				}
			}
			// A reader passed as an argument escapes to the callee,
			// which inherits the obligation.
			for _, arg := range e.Args {
				if obj := rootObj(arg); obj != nil {
					if st := get(obj); st != nil {
						st.consulted = true
					}
				}
			}
		case *ast.SelectorExpr:
			// Direct err-field access (package-internal decoders).
			if obj := rootObj(e.X); obj != nil {
				if st := get(obj); st != nil && e.Sel.Name == "err" {
					st.consulted = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range e.Results {
				if obj := rootObj(res); obj != nil {
					if st := get(obj); st != nil {
						st.consulted = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if obj := rootObj(v); obj != nil {
					if st := get(obj); st != nil {
						st.consulted = true
					}
				}
			}
		case *ast.AssignStmt:
			// Storing the reader somewhere (struct field, another
			// variable) hands it on.
			for i, rhs := range e.Rhs {
				obj := rootObj(rhs)
				if obj == nil {
					continue
				}
				if st := get(obj); st != nil && len(e.Lhs) > i {
					if _, selfRef := e.Lhs[i].(*ast.Ident); !selfRef {
						st.consulted = true
					}
				}
			}
		}
		return true
	})

	for _, st := range readers {
		if st.reads && !st.consulted {
			pass.Reportf(st.firstRead.Pos(),
				"values read from sticky reader %s but its error is never consulted (call Err, check the err field, or pass the reader on)",
				st.name)
		}
	}
}

// isReaderMethod reports whether fn is a method of the sticky Reader
// itself — its primitives manipulate the err field directly and are the
// mechanism the rule protects, not a client of it.
func isReaderMethod(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fn.Recv.List[0].Type]
	if !ok {
		return false
	}
	return isStickyReader(tv.Type)
}

// isStickyReader matches *Reader named types (any package) — the
// persist wire reader and testdata doubles.
func isStickyReader(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "Reader"
}
