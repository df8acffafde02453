// Package arenadiscipline enforces the pooled-packet ownership rule from
// the zero-alloc hot path (DESIGN.md §11): arena.Put is the END of a
// buffer's ownership — after the release the buffer may be recycled and
// overwritten by any other chain component at any moment. Code that
// still needs anything from the packet must capture it (or copy the
// packet with arena.Clone) BEFORE the Put; the sanctioned retention shape
// is exactly the root's clone-before-log:
//
//	cp := r.chain.arena.Clone(pkt) // retain a copy...
//	r.log[clock] = &entry{pkt: cp}
//	...                             // ...and only ever release the original
//
// The analyzer walks each function body in statement order (the
// unwindlock pattern): an arena.Put(x) adds x to the released set, any
// later read of x — including a second Put — is flagged. Reassigning x
// (x = arena.Get(), x = ...) returns it to the live set. Releases inside
// a branch do not taint the fall-through path, and function literals are
// scanned independently (they run in their own dynamic context): the
// analysis is deliberately conservative so every report is a genuine
// straight-line use-after-release.
package arenadiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"chc/internal/analysis/chcanalysis"
)

// Analyzer is the arenadiscipline pass.
var Analyzer = &chcanalysis.Analyzer{
	Name: "arenadiscipline",
	Doc:  "flag pooled packet buffers read (or Put again) after their arena.Put: the release is the end of ownership, so capture fields or Clone before it — clone-before-log is the sanctioned retention shape",
	Run:  run,
}

func run(pass *chcanalysis.Pass) error {
	if !pass.InScope {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				scanBlock(pass, fd.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// scanBlock walks statements in order, threading the released-buffer set.
func scanBlock(pass *chcanalysis.Pass, stmts []ast.Stmt, released map[string]bool) {
	for _, s := range stmts {
		scanStmt(pass, s, released)
	}
}

func scanStmt(pass *chcanalysis.Pass, s ast.Stmt, released map[string]bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		// RHS reads happen before the LHS targets take their new values.
		for _, rhs := range s.Rhs {
			scanExpr(pass, rhs, released)
		}
		for _, lhs := range s.Lhs {
			clear := types.ExprString(lhs)
			// Rebinding the released expression itself (pkt = arena.Get())
			// makes it live again; any other target that reaches through a
			// released buffer (m.Pkt.Meta.Flags = 0) is a store INTO it — a
			// use like any read.
			if !released[clear] {
				scanExpr(pass, lhs, released)
			}
			for k := range released {
				if k == clear || strings.HasPrefix(k, clear+".") {
					delete(released, k)
				}
			}
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred/spawned work runs in its own dynamic context; only its
		// nested literals get scanned (with fresh state).
		scanFuncLits(pass, s)
	case *ast.BlockStmt:
		scanBlock(pass, s.List, fork(released))
	case *ast.IfStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, released)
		}
		scanExpr(pass, s.Cond, released)
		scanBlock(pass, s.Body.List, fork(released))
		if s.Else != nil {
			scanStmt(pass, s.Else, fork(released))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, released)
		}
		if s.Cond != nil {
			scanExpr(pass, s.Cond, released)
		}
		scanBlock(pass, s.Body.List, fork(released))
	case *ast.RangeStmt:
		scanExpr(pass, s.X, released)
		scanBlock(pass, s.Body.List, fork(released))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				scanBlock(pass, cc.Body, fork(released))
				return false
			}
			if cc, ok := n.(*ast.CommClause); ok {
				scanBlock(pass, cc.Body, fork(released))
				return false
			}
			return true
		})
	default:
		scanExpr(pass, s, released)
	}
}

// scanExpr processes one leaf statement/expression in source order:
// arena.Put calls move their argument into the released set, and any
// read of a released buffer (by the exact expression that was released,
// e.g. "pkt" or "m.Pkt") reports.
func scanExpr(pass *chcanalysis.Pass, n ast.Node, released map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			scanBlock(pass, n.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			if isArenaPut(pass.TypesInfo, n) && len(n.Args) == 1 {
				key := types.ExprString(n.Args[0])
				if released[key] {
					pass.Reportf(n.Pos(), "pooled packet %s released twice; the second arena.Put is a stale-ownership bug even though the CAS guard absorbs it", key)
				}
				released[key] = true
				// The argument is the handover, not a read: skip it.
				return false
			}
		case *ast.Ident, *ast.SelectorExpr:
			key := types.ExprString(n.(ast.Expr))
			if released[key] {
				pass.Reportf(n.Pos(), "pooled packet %s used after arena.Put; the buffer may already be recycled — capture the field or Clone before the release", key)
				return false
			}
		}
		return true
	})
}

func scanFuncLits(pass *chcanalysis.Pass, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scanBlock(pass, lit.Body.List, map[string]bool{})
			return false
		}
		return true
	})
}

// isArenaPut reports whether call is (*packet.Arena).Put.
func isArenaPut(info *types.Info, call *ast.CallExpr) bool {
	fn := chcanalysis.Callee(info, call)
	if fn == nil || fn.Name() != "Put" {
		return false
	}
	return chcanalysis.RecvNamed(fn) == "Arena" &&
		chcanalysis.PathHasSuffix(chcanalysis.PkgPath(fn), "internal/packet")
}

func fork(released map[string]bool) map[string]bool {
	out := make(map[string]bool, len(released))
	for k := range released {
		out[k] = true
	}
	return out
}
