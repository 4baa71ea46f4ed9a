package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicPtr guards atomically-published state: once any code accesses
// a variable or struct field through a sync/atomic pointer-style
// operation (atomic.LoadInt64(&x.f), atomic.StorePointer(&p, ...)),
// every other access must go through sync/atomic too. A direct read
// "just for a test assertion" is exactly how the server's late-
// attached fabric seam would have regressed: the race detector only
// catches the schedules it sees, while this rule catches the
// mixed-access pattern itself.
//
// Typed atomics (atomic.Int64, atomic.Pointer[T]) make misuse
// unrepresentable and are the preferred style — this analyzer covers
// the legacy call-based style so it can never creep back in mixed
// form. Two direct-access forms stay legal: the address-of argument
// inside a sync/atomic call itself, and a keyed composite-literal
// initialization (construction happens before publication).
var AtomicPtr = &Analyzer{
	Name: "atomicptr",
	Doc: "variables accessed via sync/atomic operations must never " +
		"also be read or written directly: mixed access races with " +
		"the atomic protocol (use the atomic API everywhere, or a " +
		"typed atomic.Int64/atomic.Pointer field)",
	Run: runAtomicPtr,
}

func runAtomicPtr(pass *Pass) {
	// Pass 1: every object whose address feeds a sync/atomic call, and
	// the identifier positions of those sanctioned uses.
	atomicObjs := map[types.Object]bool{}
	sanctioned := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			// Package-level functions only (atomic.AddInt64 & co):
			// the typed atomics' methods take values, not protected
			// locations, and guard themselves by construction.
			if fn == nil || funcPkgPath(fn) != "sync/atomic" || fn.Signature().Recv() != nil {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if obj, id := addressedObj(pass.Info, un.X); obj != nil {
					atomicObjs[obj] = true
					sanctioned[id.Pos()] = true
				}
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return
	}

	// Pass 2: any other use of those objects is a violation, except
	// keyed composite-literal initialization.
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			id, ok := n.(*ast.Ident)
			if !ok || sanctioned[id.Pos()] {
				return true
			}
			// Uses only: a declaration (Defs) is not an access.
			obj := pass.Info.Uses[id]
			if obj == nil || !atomicObjs[obj] {
				return true
			}
			if isCompositeLitKey(stack, id) {
				return true
			}
			pass.Reportf(id.Pos(),
				"%s is accessed with sync/atomic operations elsewhere in this package; direct access races with the atomic protocol (use sync/atomic here too)",
				id.Name)
			return true
		})
	}
}

// addressedObj resolves the operand of a unary & to the variable it
// names: a field selector (&s.f) or a plain identifier (&v). It
// returns the object and the identifier carrying it.
func addressedObj(info *types.Info, expr ast.Expr) (types.Object, *ast.Ident) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok {
			return obj, x.Sel
		}
	case *ast.Ident:
		if obj, ok := info.Uses[x].(*types.Var); ok {
			return obj, x
		}
	}
	return nil, nil
}

// isCompositeLitKey reports whether id (last element of stack) is the
// key of a KeyValueExpr directly inside a composite literal — the
// construction-time init that precedes publication.
func isCompositeLitKey(stack []ast.Node, id *ast.Ident) bool {
	if len(stack) < 3 {
		return false
	}
	kv, ok := stack[len(stack)-2].(*ast.KeyValueExpr)
	if !ok || kv.Key != id {
		return false
	}
	_, ok = stack[len(stack)-3].(*ast.CompositeLit)
	return ok
}
