package lint

// This file holds a stdlib-only working subset of the standard
// golang.org/x/tools/go/analysis nilness pass, reimplemented here because
// the module deliberately takes no dependency on x/tools (see
// MIGRATION.md: the build must work with nothing but the toolchain) and
// go vet does not run nilness. The subset is strictly narrower than its
// upstream namesake: it keeps the high-signal case and drops anything
// needing SSA or control-flow graphs, so a clean run here does not imply
// a clean upstream run — but every finding here is one upstream would
// also report. The lostcancel and copylocks passes need no copy: go vet
// runs them in full.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ---- nilness (subset) ----------------------------------------------

// Nilness flags dereferences of a pointer inside the very `if x == nil`
// block that just proved it nil — the local, CFG-free core of the
// upstream nilness pass.
var Nilness = &Analyzer{
	Name: "nilness",
	Doc:  "flag dereference of a pointer inside the if-block that proved it nil (subset of x/tools nilness)",
	Run:  runNilness,
}

func runNilness(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, isIf := n.(*ast.IfStmt)
			if !isIf {
				return true
			}
			id := nilCheckedIdent(pass, ifs.Cond)
			if id == nil || reassignedIn(ifs.Body, id.Name) {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
				return true
			}
			reportNilDerefs(pass, ifs.Body, obj, id.Name)
			return true
		})
	}
	return nil
}

// nilCheckedIdent returns the identifier x when cond is exactly
// `x == nil` or `nil == x`.
func nilCheckedIdent(pass *Pass, cond ast.Expr) *ast.Ident {
	bin, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || bin.Op != token.EQL {
		return nil
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(pass, y) {
		if id, isIdent := x.(*ast.Ident); isIdent {
			return id
		}
	}
	if isNilIdent(pass, x) {
		if id, isIdent := y.(*ast.Ident); isIdent {
			return id
		}
	}
	return nil
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, isIdent := e.(*ast.Ident)
	if !isIdent {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

func reassignedIn(body *ast.BlockStmt, name string) bool {
	assigned := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name == name {
				assigned = true
			}
		}
		return true
	})
	return assigned
}

func reportNilDerefs(pass *Pass, body *ast.BlockStmt, obj types.Object, name string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StarExpr:
			if usesObj(pass, n.X, obj) {
				pass.Report(n.Pos(), "dereference of %s, proven nil by the enclosing if", name)
			}
		case *ast.SelectorExpr:
			// x.f / x.m() with pointer x panics when x is nil (methods
			// with pointer receivers may tolerate it; fields never do —
			// report only field selections to stay within certainty).
			if usesObj(pass, n.X, obj) {
				if _, isField := pass.TypesInfo.Uses[n.Sel].(*types.Var); isField {
					pass.Report(n.Pos(), "field access on %s, proven nil by the enclosing if", name)
				}
			}
		}
		return true
	})
}

func usesObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	id, isIdent := ast.Unparen(e).(*ast.Ident)
	return isIdent && pass.TypesInfo.Uses[id] == obj
}
