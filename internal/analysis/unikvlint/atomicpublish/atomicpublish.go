// Package atomicpublish enforces the copy-on-write publish protocol around
// atomic.Pointer[T] fields (the unsorted.Store sorted view, the hot ring's
// slot entries, the DB's degraded state). The protocol has three rules:
//
//  1. The pointer word itself is touched only through Load / Store / Swap /
//     CompareAndSwap. Copying the atomic by value or overwriting it with an
//     assignment tears the publish: the copy is a fresh, unsynchronized
//     word, and the race detector only notices if a reader races the exact
//     interleaving.
//
//  2. A value PUBLISHED via Store/Swap/CompareAndSwap must be complete
//     before the call — any mutation after the publish is visible to
//     readers mid-change. This is the PR 8 pre-fix bug shape: a snapshot
//     state published before its sequence field was final, so a concurrent
//     reader observed an out-of-order sequence.
//
//  3. A value obtained from Load must never be mutated: it is shared with
//     every other reader. Copy-on-write means clone-then-modify-then-Store,
//     never modify-in-place. For an atomic.Pointer to a slice (the DB's
//     router order), `v := *X.Load()` binds the shared slice itself, and a
//     same-package function whose body is `return X.Load()` or
//     `return *X.Load()` is a loader: `v := f()` binds what it loaded.
//     Likewise `X.Store(&v)` publishes v.
//
//  4. A pointer type with a registered publish helper (singlePublisher) is
//     stored only inside that helper — the partition version, whose publish
//     also takes the version's hold on its files and fills in its gauges:
//     a Store anywhere else would publish a version without them.
//
// "Mutation" is an assignment THROUGH the value (v.f = x, v.s[i] = y,
// *v = z) — rebinding the variable is fine, and calling a method is not
// flagged (methods on atomic-typed FIELDS of a published value, like the
// hot ring entry's freq, are the sanctioned post-publish channel; COW
// builders like View.WithTable return fresh values). Passing a published
// value to a same-package helper that mutates its parameter is caught
// through fixed-point parameter-mutation summaries over the call graph
// (internal/analysis/callgraph), at any forwarding depth; cross-package
// callees are assumed well-behaved.
package atomicpublish

import (
	"go/ast"
	"go/token"
	"go/types"

	"unikv/internal/analysis"
	"unikv/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicpublish",
	Doc: "enforce copy-on-write discipline around atomic.Pointer fields: no " +
		"non-atomic access to the pointer word, no mutation of a value after " +
		"it is published via Store/Swap, no mutation of a value obtained from " +
		"Load",
	Run: run,
}

func init() { analysis.RegisterCheck(Analyzer.Name) }

// atomicMethods are the only selectors allowed on an atomic.Pointer value.
var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Swap": true, "CompareAndSwap": true,
}

// singlePublisher registers the pointed-to types that may be published —
// Store, Swap or CompareAndSwap on an atomic.Pointer to them — by one
// function only: type name → function name.
var singlePublisher = map[string]string{
	"version": "publish", // internal/core: partition.cur
}

// pointee returns the name of T's pointed-to named type for an
// atomic.Pointer[T] ("" if unnamed).
func pointee(t types.Type) string {
	if n, ok := t.(*types.Named); ok && n.TypeArgs().Len() == 1 {
		if e, ok := n.TypeArgs().At(0).(*types.Named); ok {
			return e.Obj().Name()
		}
	}
	return ""
}

// isAtomicPointer reports whether t is sync/atomic.Pointer[T] (the value
// type; *atomic.Pointer aliases the same word and stays atomic, so pointers
// to it are not restricted).
func isAtomicPointer(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// mutSummary records which parameters a function mutates through — directly
// or by forwarding to another mutating same-package function — iterated to
// a fixed point.
type mutSummary map[int]bool

func mutEqual(a, b mutSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass)

	mutates := callgraph.Fixpoint(g, mutEqual, func(f *callgraph.Func, get func(*callgraph.Func) mutSummary) mutSummary {
		s := mutSummary{}
		params := paramObjs(f)
		mark := func(e ast.Expr) {
			if obj := mutationRoot(pass.TypesInfo, e); obj != nil {
				if i, ok := params[obj]; ok {
					s[i] = true
				}
			}
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.CallExpr:
				callee := g.ByObj[callgraph.StaticCallee(pass.TypesInfo, n)]
				if callee == nil {
					return true
				}
				for argIdx := range get(callee) {
					if argIdx >= len(n.Args) {
						continue
					}
					if obj := rootObj(pass.TypesInfo, n.Args[argIdx]); obj != nil {
						if i, ok := params[obj]; ok {
							s[i] = true
						}
					}
				}
			}
			return true
		})
		return s
	})

	loaders := map[*callgraph.Func]string{}
	for _, f := range g.Funcs {
		if body := f.Decl.Body.List; len(body) == 1 {
			if ret, ok := body[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				if x := loadedFrom(pass.TypesInfo, ret.Results[0]); x != "" {
					loaders[f] = x
				}
			}
		}
	}

	for _, f := range g.Funcs {
		if f.TestFile {
			continue
		}
		checkFunc(pass, g, f, mutates, loaders)
	}
	return nil, nil
}

// loadedFrom returns the atomic.Pointer expression e loads from, as text,
// when e is X.Load() or *X.Load(), and "" otherwise.
func loadedFrom(info *types.Info, e ast.Expr) string {
	if star, ok := ast.Unparen(e).(*ast.StarExpr); ok {
		e = star.X
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return ""
	}
	if tv, ok := info.Types[sel.X]; !ok || !isAtomicPointer(tv.Type) {
		return ""
	}
	return exprString(sel.X)
}

// paramObjs maps f's pointer-typed parameter objects to their indices
// (mutating a by-value parameter cannot escape the callee).
func paramObjs(f *callgraph.Func) map[types.Object]int {
	out := map[types.Object]int{}
	sig, ok := f.Obj.Type().(*types.Signature)
	if !ok {
		return out
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		switch p.Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map:
			out[p] = i
		}
	}
	return out
}

// rootObj resolves the base identifier of a selector/index/star/paren chain.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mutationRoot is rootObj restricted to LHS expressions that actually write
// THROUGH the root (at least one selector/index/deref level): `v = x`
// rebinds and is fine; `v.f = x` mutates what v points at.
func mutationRoot(info *types.Info, e ast.Expr) types.Object {
	switch ast.Unparen(e).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return rootObj(info, e)
	}
	return nil
}

// published is one variable bound to a value shared with readers.
type published struct {
	obj types.Object
	pos token.Pos // the Load/Store/Swap that shared it
	how string    // "published via X.Store" or "loaded from X.Load"
}

func checkFunc(pass *analysis.Pass, g *callgraph.Graph, f *callgraph.Func, mutates map[*callgraph.Func]mutSummary, loaders map[*callgraph.Func]string) {
	info := pass.TypesInfo

	// Pass 1 — rule 1, and collect the published/loaded variables.
	var pubs []published
	var stack []ast.Node
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)

		// Rule 1: a value of type atomic.Pointer may only appear as the
		// receiver of Load/Store/Swap/CompareAndSwap (or under &, which
		// preserves atomicity).
		if e, ok := n.(ast.Expr); ok {
			// IsValue filters out TYPE expressions (make([]atomic.Pointer[T],
			// n), composite-literal types), which carry the type too. A
			// composite literal is a fresh, unshared value — the sink it
			// flows into is judged on its own.
			_, freshLit := e.(*ast.CompositeLit)
			if tv, ok := info.Types[e]; ok && tv.IsValue() && !freshLit && isAtomicPointer(tv.Type) {
				if !sanctionedContext(stack) {
					pass.Reportf(e.Pos(),
						"non-atomic access to atomic.Pointer value %s: only Load/Store/Swap/CompareAndSwap may touch the word — copying or reassigning it tears the publish protocol",
						exprString(e))
				}
			}
		}

		// Collect publishes: X.Store(v) / X.Swap(v) / X.CompareAndSwap(_, v)
		// with X an atomic.Pointer and v an identifier.
		if call, ok := n.(*ast.CallExpr); ok {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !atomicMethods[sel.Sel.Name] {
				return true
			}
			tv, ok := info.Types[sel.X]
			if !ok || !isAtomicPointer(tv.Type) {
				return true
			}
			if helper := singlePublisher[pointee(tv.Type)]; helper != "" && sel.Sel.Name != "Load" && f.Name != helper {
				pass.Reportf(call.Pos(),
					"%s.%s outside %s: a %s is published only through its helper, which completes it first",
					exprString(sel.X), sel.Sel.Name, helper, pointee(tv.Type))
			}
			var arg ast.Expr
			switch sel.Sel.Name {
			case "Store", "Swap":
				if len(call.Args) == 1 {
					arg = call.Args[0]
				}
			case "CompareAndSwap":
				if len(call.Args) == 2 {
					arg = call.Args[1]
				}
			}
			if arg == nil {
				return true
			}
			if addr, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && addr.Op == token.AND {
				arg = addr.X // X.Store(&v) publishes v
			}
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					pubs = append(pubs, published{
						obj: obj, pos: call.Pos(),
						how: "published via " + exprString(sel.X) + "." + sel.Sel.Name,
					})
				}
			}
		}

		// Collect loads: v := X.Load() or *X.Load() or a loader's result
		// (also v, ok := ...; v = X.Load()).
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			how := ""
			if x := loadedFrom(info, as.Rhs[0]); x != "" {
				how = "loaded from " + x + ".Load"
			} else if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
				if callee := g.ByObj[callgraph.StaticCallee(info, call)]; callee != nil && loaders[callee] != "" {
					how = "loaded from " + loaders[callee] + ".Load by " + callee.Name
				}
			}
			if how == "" {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					pubs = append(pubs, published{obj: obj, pos: as.Rhs[0].Pos(), how: how})
				}
			}
		}
		return true
	})

	if len(pubs) == 0 {
		return
	}
	shared := func(obj types.Object, after token.Pos) *published {
		for i := range pubs {
			if pubs[i].obj == obj && pubs[i].pos <= after {
				return &pubs[i]
			}
		}
		return nil
	}

	// Pass 2 — rules 2 and 3: mutations through a published variable after
	// the sharing point (source order; a rebind between does not clear the
	// taint — the checker is deliberately strict there).
	report := func(pos token.Pos, p *published, via string) {
		pass.Reportf(pos,
			"mutation of %s, %s at %s%s: the value is shared with concurrent readers — copy-on-write requires building a fresh value and re-publishing it",
			p.obj.Name(), p.how, pass.Fset.Position(p.pos), via)
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := mutationRoot(info, lhs); obj != nil {
					if p := shared(obj, lhs.Pos()); p != nil {
						report(lhs.Pos(), p, "")
					}
				}
			}
		case *ast.IncDecStmt:
			if obj := mutationRoot(info, n.X); obj != nil {
				if p := shared(obj, n.Pos()); p != nil {
					report(n.Pos(), p, "")
				}
			}
		case *ast.CallExpr:
			callee := g.ByObj[callgraph.StaticCallee(info, n)]
			if callee == nil {
				return true
			}
			for argIdx := range mutates[callee] {
				if argIdx >= len(n.Args) {
					continue
				}
				id, ok := ast.Unparen(n.Args[argIdx]).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := info.Uses[id]; obj != nil {
					if p := shared(obj, n.Pos()); p != nil {
						report(n.Pos(), p, " (call to "+callee.Name+" mutates this argument)")
					}
				}
			}
		}
		return true
	})
}

// sanctionedContext inspects the ancestor chain of an atomic.Pointer-typed
// expression (stack ends with the expression itself) and reports whether
// its immediate use keeps the access atomic: selecting one of the atomic
// methods, taking its address, or merely being the X of a selector/index
// step on the way to one (those parents carry their own type and are
// re-checked independently).
func sanctionedContext(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	e := stack[len(stack)-1].(ast.Expr)
	switch p := stack[len(stack)-2].(type) {
	case *ast.SelectorExpr:
		// x.view.Store → the atomic is the X of a method selector.
		return p.X == e && atomicMethods[p.Sel.Name]
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.ParenExpr:
		return true // judged again as the paren's own context
	}
	return false
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "<expr>"
}
