package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatDet flags floating-point accumulation inside a range over a map.
// Map iteration order is randomized per run, float addition is not
// associative, and the DMCS density-modularity scores are float
// reductions whose bit-exactness the repository's differential tests
// (reference peel vs CSR, serial vs engine, pre- vs post-Apply) depend on — so
// an accumulation like
//
//	for _, w := range weights { total += w } // finding
//
// produces run-to-run-different low bits and breaks those tests
// nondeterministically. The fix is to iterate a sorted key slice (or a
// deterministic sweep like Graph.EdgesW) instead. Only accumulators
// declared outside the range body are flagged: a float reduction into a
// loop-local is per-iteration state, not a cross-iteration sum.
var FloatDet = &Analyzer{
	Name: "floatdet",
	Doc:  "flag float accumulation over map iteration (nondeterministic order breaks bit-exact results)",
	Run:  runFloatDet,
}

func runFloatDet(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			checkFloatAccum(pass, info, rng)
			return true
		})
	}
	return nil
}

// checkFloatAccum reports float accumulations into outside-declared
// variables anywhere inside the range body (including nested blocks and
// loops, but not nested functions — a closure's execution timing is not
// the range's). Accumulators indexed by the range key itself
// (out[k] += v inside for k, v := range m) are exempt: every iteration
// touches a distinct slot, so the result is order-independent.
func checkFloatAccum(pass *Pass, info *types.Info, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				reportIfOuterFloat(pass, info, rng, lhs)
			}
		case token.ASSIGN:
			// x = x + e (and x = e + x etc.) spelled out long-hand.
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				if bin, ok := unparen(as.Rhs[i]).(*ast.BinaryExpr); ok && selfReferential(info, lhs, bin) {
					reportIfOuterFloat(pass, info, rng, lhs)
				}
			}
		}
		return true
	})
}

// selfReferential reports whether the binary expression mentions the
// object lhs resolves to (so `x = x + w` counts, `x = a + b` does not).
func selfReferential(info *types.Info, lhs ast.Expr, bin *ast.BinaryExpr) bool {
	id := rootIdentOf(lhs)
	if id == nil {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return mentionsObject(info, bin, obj)
}

// reportIfOuterFloat reports lhs when it is float-typed and its variable
// was declared outside the range statement's body.
func reportIfOuterFloat(pass *Pass, info *types.Info, rng *ast.RangeStmt, lhs ast.Expr) {
	t := pass.TypeOf(lhs)
	if t == nil || !isFloat(t) {
		return
	}
	if indexedByRangeKey(info, rng, lhs) {
		return
	}
	id := rootIdentOf(lhs)
	if id == nil {
		return
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return
	}
	// Struct fields and package vars have no in-body position; locals
	// declared inside the body span [rng.Body.Pos(), rng.Body.End()).
	if obj.Pos() >= rng.Body.Pos() && obj.Pos() < rng.Body.End() {
		return
	}
	pass.Reportf(lhs.Pos(), "float accumulation into %s over map iteration is order-nondeterministic; iterate sorted keys instead", types.ExprString(lhs))
}

// indexedByRangeKey reports whether lhs is an index expression whose
// index is exactly the range statement's key variable — the distinct-
// slot-per-iteration pattern that is order-independent.
func indexedByRangeKey(info *types.Info, rng *ast.RangeStmt, lhs ast.Expr) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	keyObj := info.Defs[keyID]
	if keyObj == nil {
		keyObj = info.Uses[keyID]
	}
	if keyObj == nil {
		return false
	}
	ix, ok := unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := unparen(ix.Index).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj == keyObj
}
