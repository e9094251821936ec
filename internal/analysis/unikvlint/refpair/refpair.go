// Package refpair enforces the refcount-fencing protocol of the storage
// packages: an acquired reference — a pinned partition version
// (partition.acquire) or a NewSnapshot handle — must reach its matching
// release (version.release or Snapshot.Close) on every ERROR path. A
// reference leaked on an error return is never retried and never dropped:
// the refcount stays above zero forever, which permanently keeps every file
// the version names on disk (internal/core/files.go).
//
// A job's writers pair the same way: a table writer (any call returning a
// *tableWriter) or a dedicated value log (a *DedicatedLog) must reach
// finish/abort (Finish/Abort) on every error path. A writer abandoned on an
// error return keeps its half-written file open after the job's end removed
// it, one more handle per retry.
//
// Success returns are deliberately exempt: the engine's constructors
// transfer ownership on success (NewSnapshot hands its pins to the
// Snapshot), and a transfer looks exactly like a leak to a checker that
// cannot see the receiving struct. Error returns have no such excuse — a
// failed operation owns everything it acquired.
//
// The check is interprocedural via fixed-point summaries over the package
// call graph (internal/analysis/callgraph): a void helper that acquires
// (pinAll) makes its caller the holder, and a helper that releases
// (releaseAll) discharges the caller's obligations — at any call depth. Only
// void helpers hand acquisitions to the caller: a callee that returns a
// non-error result owns them via the returned handle (the NewSnapshot
// shape), and a callee that can fail polices its own error paths and
// transfers ownership into shared state when it succeeds — either way the
// caller's frame holds nothing.
//
// Two recognized non-leaks: the error return immediately guarding a
// (handle, error) constructor call reports the constructor's OWN failure
// (nothing was acquired), and a `defer release` protects every later path.
// Function literals are skipped: a goroutine or callback owns its own
// references.
package refpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"unikv/internal/analysis"
	"unikv/internal/analysis/callgraph"
	"unikv/internal/analysis/unikvlint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "refpair",
	Doc: "require every acquired reference (a pinned partition version or " +
		"NewSnapshot handle) to be released, and every job writer (table " +
		"writer, dedicated value log) finished or aborted, on all error " +
		"paths — a leaked ref keeps the files it fences on disk forever",
	Run: run,
}

func init() { analysis.RegisterCheck(Analyzer.Name) }

// pairKind is one acquire/release protocol the checker knows.
type pairKind uint8

const (
	kindHandle pairKind = iota // acquire / release, NewSnapshot / Close
	kindWriter                 // a *tableWriter or *DedicatedLog / finish, abort
	numKinds
)

// writerTypes are the job writers kindWriter pairs, with their release
// methods.
var writerTypes = map[string][]string{
	"tableWriter":  {"finish", "abort"},
	"DedicatedLog": {"Finish", "Abort"},
}

// evKind enumerates the replayed event stream.
type evKind uint8

const (
	evAcquire evKind = iota
	evRelease
	evDeferRelease
	evErrReturn
	evCall
)

type event struct {
	kind evKind
	pair pairKind
	// key pairs acquire with release: the handle variable ("v", "s", "w").
	key string
	pos token.Pos
	// errObj, on an evAcquire from a (handle, error) constructor, is the
	// error variable bound alongside the handle; on an evErrReturn it is the
	// returned error variable. A return of the constructor's own error does
	// not leak the handle — nothing was acquired.
	errObj types.Object
	callee *callgraph.Func // evCall
	// deferred marks an evCall made from a defer: the callee's releases
	// protect every later path, and its acquisitions are ignored.
	deferred bool
}

// refSummary is one function's transitive acquire/release effect.
type refSummary struct {
	acq [numKinds]bool
	rel [numKinds]bool
}

func summariesEqual(a, b refSummary) bool { return a == b }

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.RestrictedStorePackage(pass.Pkg.Path()) {
		return nil, nil
	}
	g := callgraph.Build(pass)

	events := map[*callgraph.Func][]event{}
	for _, f := range g.Funcs {
		if f.TestFile {
			continue
		}
		events[f] = collect(pass, g, f)
	}

	sums := callgraph.Fixpoint(g, summariesEqual,
		func(f *callgraph.Func, get func(*callgraph.Func) refSummary) refSummary {
			var s refSummary
			for _, ev := range events[f] {
				switch ev.kind {
				case evAcquire:
					s.acq[ev.pair] = true
				case evRelease, evDeferRelease:
					s.rel[ev.pair] = true
				case evCall:
					cs := get(ev.callee)
					for k := pairKind(0); k < numKinds; k++ {
						if cs.rel[k] {
							s.rel[k] = true
						}
						// Acquisitions travel to the caller only from void
						// helpers (see handsToCaller).
						if cs.acq[k] && !cs.rel[k] && handsToCaller(ev.callee) {
							s.acq[k] = true
						}
					}
				}
			}
			return s
		})

	for _, f := range g.Funcs {
		replay(pass, f, events[f], sums)
	}
	return nil, nil
}

// handsToCaller reports whether f's net acquisitions become its caller's
// obligation. Only void helpers qualify: a callee returning a non-error
// result owns its acquisitions via the returned handle (the NewSnapshot
// shape), and a callee that can fail is responsible for its own error
// paths — when it returns nil its success transferred ownership into
// shared state, exactly like an intra-function success return (the
// splitPartition/mergeLocked commit shape). In both cases the caller's
// frame holds nothing to release.
func handsToCaller(f *callgraph.Func) bool {
	sig, ok := f.Obj.Type().(*types.Signature)
	return ok && sig.Results().Len() == 0
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool { return types.Implements(t, errorIface) }

// held is one live obligation during replay.
type held struct {
	pair     pairKind
	key      string
	pos      token.Pos
	errObj   types.Object // constructor's error variable, if any
	deferred bool         // a defer will release it on every path
}

// replay walks f's event stream in source order, reporting every error
// return that abandons a live, non-deferred obligation. Source order
// approximates path order for the engine's idiom (acquire; on failure
// release+return; on success transfer): a release inside an early error
// branch may mask a later leak (a miss, never a false report).
func replay(pass *analysis.Pass, f *callgraph.Func, events []event, sums map[*callgraph.Func]refSummary) {
	var live []*held
	release := func(pair pairKind, key string, deferOnly bool) {
		kept := live[:0]
		for _, h := range live {
			match := h.pair == pair && h.key == key
			if match {
				if deferOnly {
					h.deferred = true
				} else {
					continue // discharged
				}
			}
			kept = append(kept, h)
		}
		live = kept
	}

	for _, ev := range events {
		switch ev.kind {
		case evAcquire:
			live = append(live, &held{pair: ev.pair, key: ev.key, pos: ev.pos, errObj: ev.errObj})
		case evRelease:
			release(ev.pair, ev.key, false)
		case evDeferRelease:
			release(ev.pair, ev.key, true)
		case evCall:
			cs := sums[ev.callee]
			for k := pairKind(0); k < numKinds; k++ {
				if !cs.rel[k] {
					continue
				}
				// An interprocedural release cannot be key-matched; discharge
				// (or, from a defer, protect) every live obligation of that
				// kind.
				kept := live[:0]
				for _, h := range live {
					if h.pair == k {
						if !ev.deferred {
							continue
						}
						h.deferred = true
					}
					kept = append(kept, h)
				}
				live = kept
			}
			if ev.deferred {
				break
			}
			for k := pairKind(0); k < numKinds; k++ {
				if cs.acq[k] && !cs.rel[k] && handsToCaller(ev.callee) {
					live = append(live, &held{pair: k, key: "via " + ev.callee.Name, pos: ev.pos})
				}
			}
		case evErrReturn:
			for _, h := range live {
				if h.deferred {
					continue
				}
				if h.errObj != nil && ev.errObj != nil && h.errObj == ev.errObj {
					continue // the constructor's own failure: nothing acquired
				}
				if h.pair == kindWriter {
					pass.Reportf(ev.pos,
						"error return leaves writer %s created at %s open: finish or abort it on this path (or defer its abort) — each failed attempt would leak a file handle",
						h.key, pass.Fset.Position(h.pos))
					continue
				}
				pass.Reportf(ev.pos,
					"error return leaks handle %s acquired at %s: release it on this path (or defer the release/Close) — a leaked reference permanently blocks value-log GC",
					h.key, pass.Fset.Position(h.pos))
			}
		}
	}
}

// collect extracts f's event stream in source order. Function literals are
// skipped except directly deferred ones, whose releases pair like any other
// defer (the deferred-closure cleanup idiom).
func collect(pass *analysis.Pass, g *callgraph.Graph, f *callgraph.Func) []event {
	var out []event
	info := pass.TypesInfo

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, true)
				} else {
					walk(n.Call, true)
				}
				return false
			case *ast.AssignStmt:
				// Constructor shape: handle[, err] := acquire/NewSnapshot call.
				if len(n.Rhs) == 1 {
					if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
						if ev, ok := classifyAcquire(info, call); ok {
							if id, ok := n.Lhs[0].(*ast.Ident); ok {
								ev.key = id.Name
								if len(n.Lhs) > 1 {
									ev.errObj = objOf(info, n.Lhs[len(n.Lhs)-1])
								}
							}
							out = append(out, ev)
							// Still walk the RHS for nested calls (args).
							for _, a := range call.Args {
								walk(a, inDefer)
							}
							return false
						}
					}
				}
				return true
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					walk(r, inDefer)
				}
				if obj, isErr := errorReturn(pass, f, n); isErr {
					out = append(out, event{kind: evErrReturn, pos: n.Pos(), errObj: obj})
				}
				return false
			case *ast.CallExpr:
				if ev, ok := classifyAcquire(info, n); ok {
					if !inDefer { // a deferred acquire makes no sense; ignore
						out = append(out, ev)
					}
					return true
				}
				if ev, ok := classifyRelease(info, n); ok {
					if inDefer {
						ev.kind = evDeferRelease
					}
					out = append(out, ev)
					return true
				}
				if obj := callgraph.StaticCallee(info, n); obj != nil {
					if callee, ok := g.ByObj[obj]; ok {
						out = append(out, event{kind: evCall, pos: n.Pos(), callee: callee, deferred: inDefer})
					}
				}
				return true
			}
			return true
		})
	}
	walk(f.Decl.Body, false)
	return out
}

func objOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// classifyAcquire recognizes the acquire half of each protocol: handles by
// the constructor's name, writers by the type of its first result.
func classifyAcquire(info *types.Info, c *ast.CallExpr) (event, bool) {
	ev := event{kind: evAcquire, pair: kindHandle, key: "<unnamed>", pos: c.Pos()}
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if ok && (sel.Sel.Name == "acquire" || sel.Sel.Name == "NewSnapshot") {
		return ev, true
	}
	t := info.TypeOf(c)
	if tuple, ok := t.(*types.Tuple); ok && tuple.Len() > 0 {
		t = tuple.At(0).Type()
	}
	if _, ok := t.(*types.Pointer); ok && writerTypes[lintutil.NamedName(t)] != nil {
		ev.pair = kindWriter
		return ev, true
	}
	return event{}, false
}

// classifyRelease recognizes the release half of each protocol. It pairs by
// key: it releases the handle or writer held in that variable.
func classifyRelease(info *types.Info, c *ast.CallExpr) (event, bool) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	ev := event{kind: evRelease, pair: kindHandle, key: lintutil.ExprString(sel.X), pos: c.Pos()}
	if sel.Sel.Name == "release" || sel.Sel.Name == "Close" {
		return ev, true
	}
	if t := info.TypeOf(sel.X); t != nil && slices.Contains(writerTypes[lintutil.NamedName(t)], sel.Sel.Name) {
		ev.pair = kindWriter
		return ev, true
	}
	return event{}, false
}

// errorReturn reports whether ret is a definite-error return of f: the
// function's last result is an error and the expression returned in that
// position is an error-typed identifier (not nil) or a fresh construction
// (errors.New / fmt.Errorf / WithClass / classified). Tail calls and plain
// nils are ambiguous-or-success and never flagged.
func errorReturn(pass *analysis.Pass, f *callgraph.Func, ret *ast.ReturnStmt) (types.Object, bool) {
	sig, ok := f.Obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil, false
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return nil, false
	}
	if len(ret.Results) != sig.Results().Len() {
		return nil, false // naked return or spread call: ambiguous
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	switch e := last.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil || e.Name == "nil" {
			return nil, false
		}
		if !isErrorType(obj.Type()) {
			return nil, false
		}
		return obj, true
	case *ast.CallExpr:
		switch name := calleeName(e); name {
		case "New", "Errorf", "WithClass", "classified":
			return nil, true
		}
	}
	return nil, false
}

func calleeName(c *ast.CallExpr) string {
	switch fun := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
