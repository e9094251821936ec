// Package lockorder enforces the engine's documented mutex hierarchy
// (internal/core/db.go):
//
//	snapMu -> maintMu -> flushMu -> router.mu -> partition.mu
//	  -> liveFiles.mu -> hotring.writerMu
//
// Within each function it replays the acquisition sequence in source order
// and reports any acquisition of a lower-ranked mutex while a higher-ranked
// one is held. Fixed-point call summaries (internal/analysis/callgraph)
// extend the check across the whole package call graph: each function's
// summary is the set of ranked mutexes it acquires directly or through any
// chain of same-package callees, iterated to convergence, so calling a
// helper whose helper's helper acquires a lower-ranked mutex while holding
// a higher-ranked one is caught at the call site (PR 2's vlog/GC race was
// the one-edge instance of this shape, found only by -race stress at the
// time; PR 4's one-level summaries caught exactly one edge and went blind
// at two). Read and write acquisitions are distinguished: an RUnlock only
// pairs with an RLock of the same mutex and an Unlock only with a Lock, so
// a mismatched release no longer silently satisfies the pairing check.
// It also reports a Lock with no matching Unlock — direct, deferred, or in
// a deferred closure — anywhere in the function; intentional lock handoffs
// need a //unikv:allow(lockorder) with a reason.
//
// The analysis is path-insensitive: it walks statements in source order and
// treats a release in any branch as releasing for the remainder, which
// under-reports (never falsely) on branchy code. Function literals are
// replayed as their own sequences (they run as goroutines or callbacks, not
// at their point of definition), and their acquisitions deliberately stay
// out of the enclosing function's summary — a lock taken on another
// goroutine is a different lock stack, not an inversion.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"unikv/internal/analysis"
	"unikv/internal/analysis/callgraph"
	"unikv/internal/analysis/unikvlint/lintutil"
)

const docOrder = "snapMu -> maintMu -> flushMu -> router.mu -> partition.mu -> liveFiles.mu -> hotring.writerMu"

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforce the documented mutex acquisition order (" + docOrder + ") " +
		"per function and across the package call graph (fixed-point call " +
		"summaries), and require every Lock/RLock to have a matching " +
		"Unlock/RUnlock or defer",
	Run: run,
}

func init() { analysis.RegisterCheck(Analyzer.Name) }

// mutexRef is one classified reference to a ranked mutex.
type mutexRef struct {
	rank  int
	label string // human name from the documented order
	key   string // textual receiver ("p.mu", "db.router") for pairing
	read  bool   // RLock/RUnlock rather than Lock/Unlock
}

var rankLabels = [...]string{"snapMu", "maintMu", "flushMu", "router.mu", "partition.mu", "liveFiles.mu", "hotring.writerMu"}

// acquireMethods and releaseMethods classify the method name and carry the
// read/write mode; the two sides pair only when both key and mode match.
var acquireMethods = map[string]bool{"Lock": false, "RLock": true, "TryLock": false, "TryRLock": true}
var releaseMethods = map[string]bool{"Unlock": false, "RUnlock": true}

// classify resolves the receiver of a Lock/Unlock call to a ranked mutex.
// snapMu (the snapshot registry lock — rank 0: NewSnapshot holds it across
// the whole capture, which RLocks the router and every partition, and Close
// takes it before any teardown lock), maintMu, flushMu, router, liveFiles,
// and writerMu (the hot ring's per-shard mutator lock — last rank: ring
// methods are called with core locks held but never acquire one) are
// identified by field name (router and liveFiles embed their mutex, so the
// lock method is called on the field itself); partition.mu by a field
// named mu on a type named partition.
func classify(info *types.Info, recv ast.Expr) (mutexRef, bool) {
	var fieldName string
	var owner ast.Expr
	switch r := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		fieldName = r.Sel.Name
		owner = r.X
	case *ast.Ident:
		fieldName = r.Name
	default:
		return mutexRef{}, false
	}
	rank := -1
	switch fieldName {
	case "snapMu":
		rank = 0
	case "maintMu":
		rank = 1
	case "flushMu":
		rank = 2
	case "router":
		rank = 3
	case "liveFiles":
		rank = 5
	case "writerMu":
		rank = 6
	case "mu":
		if owner != nil {
			if tv, ok := info.Types[owner]; ok && lintutil.NamedName(tv.Type) == "partition" {
				rank = 4
			}
		}
	}
	if rank < 0 {
		return mutexRef{}, false
	}
	return mutexRef{rank: rank, label: rankLabels[rank], key: lintutil.ExprString(recv)}, true
}

// event is one step of a function's replayed lock sequence.
type event struct {
	kind eventKind
	ref  mutexRef    // acquire / release / deferRelease
	fn   *types.Func // call
	pos  token.Pos
}

type eventKind int

const (
	evAcquire eventKind = iota
	evRelease
	evDeferRelease
	evCall
)

// acqKey indexes a transitive-summary entry: the same mutex rank acquired
// for reading and for writing are distinct entries (the diagnostic names
// the mode), but both invert against a higher-ranked held lock.
type acqKey struct {
	rank int
	read bool
}

// lockSummary is a function's fixed-point effect summary: every ranked
// acquisition it performs directly or through any chain of same-package
// callees, each mapped to the call chain that reaches it ("" = direct).
type lockSummary map[acqKey]string

func summariesEqual(a, b lockSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass)

	// Direct per-function facts, computed once: the linearized lock events
	// and the function literals to replay separately.
	type direct struct {
		events []event
		lits   []*ast.FuncLit
	}
	directs := map[*callgraph.Func]*direct{}
	for _, f := range g.Funcs {
		events, lits := collect(pass, f.Decl.Body)
		directs[f] = &direct{events: events, lits: lits}
	}

	// Fixed-point transitive summaries over the call graph. Acquisitions
	// are drawn from the event stream (which excludes function-literal
	// interiors — those run on their own goroutine or at callback time),
	// and call edges likewise only from events, so the summary describes
	// what calling the function acquires synchronously.
	sums := callgraph.Fixpoint(g, summariesEqual, func(f *callgraph.Func, get func(*callgraph.Func) lockSummary) lockSummary {
		s := lockSummary{}
		for _, ev := range directs[f].events {
			switch ev.kind {
			case evAcquire:
				k := acqKey{rank: ev.ref.rank, read: ev.ref.read}
				if _, ok := s[k]; !ok {
					s[k] = ""
				}
			case evCall:
				callee := g.ByObj[ev.fn]
				if callee == nil || callee == f {
					continue
				}
				for k, via := range get(callee) {
					if _, ok := s[k]; ok {
						continue
					}
					chain := callee.Name
					if via != "" {
						chain += " -> " + via
					}
					s[k] = chain
				}
			}
		}
		return s
	})

	// Replay each function, then each non-deferred function literal (which
	// runs as its own goroutine or callback) as its own sequence.
	type job struct {
		self *callgraph.Func // nil for literals
		name string
		body *ast.BlockStmt
	}
	var jobs []job
	for _, f := range g.Funcs {
		jobs = append(jobs, job{self: f, name: f.Name, body: f.Decl.Body})
	}
	for i := 0; i < len(jobs); i++ {
		j := jobs[i]
		var events []event
		var lits []*ast.FuncLit
		if j.self != nil {
			d := directs[j.self]
			events, lits = d.events, d.lits
		} else {
			events, lits = collect(pass, j.body)
		}
		for _, lit := range lits {
			jobs = append(jobs, job{name: j.name + " (func literal)", body: lit.Body})
		}
		replay(pass, g, j.self, j.name, events, sums)
	}
	return nil, nil
}

// collect linearizes body into lock events in source order. Deferred
// unlocks — `defer x.Unlock()` or unlocks inside a `defer func(){...}()`
// literal — become evDeferRelease. Other function literals are returned for
// separate replay: their bodies run at some later time, not at this point
// of the sequence.
func collect(pass *analysis.Pass, body *ast.BlockStmt) ([]event, []*ast.FuncLit) {
	var events []event
	var lits []*ast.FuncLit
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Deferred direct unlock.
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
				if read, isRelease := releaseMethods[sel.Sel.Name]; isRelease {
					if ref, ok := classify(pass.TypesInfo, sel.X); ok {
						ref.read = read
						events = append(events, event{kind: evDeferRelease, ref: ref, pos: n.Pos()})
					}
					return false
				}
			}
			// Deferred closure: its unlocks release at function end; any
			// acquisitions inside it are replayed separately below.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if read, isRelease := releaseMethods[sel.Sel.Name]; isRelease {
							if ref, ok := classify(pass.TypesInfo, sel.X); ok {
								ref.read = read
								events = append(events, event{kind: evDeferRelease, ref: ref, pos: call.Pos()})
							}
						}
					}
					return true
				})
				lits = append(lits, lit)
				return false
			}
			return true
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				read, isAcquire := acquireMethods[sel.Sel.Name]
				relRead, isRelease := releaseMethods[sel.Sel.Name]
				if isAcquire || isRelease {
					if ref, ok := classify(pass.TypesInfo, sel.X); ok {
						kind := evAcquire
						ref.read = read
						if isRelease {
							kind = evRelease
							ref.read = relRead
						}
						events = append(events, event{kind: kind, ref: ref, pos: n.Pos()})
						return true
					}
				}
			}
			if fn := callgraph.StaticCallee(pass.TypesInfo, n); fn != nil && fn.Pkg() == pass.Pkg {
				events = append(events, event{kind: evCall, fn: fn, pos: n.Pos()})
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
	return events, lits
}

// modeName names an acquisition's mode for the pairing diagnostics.
func modeName(read bool, acquire bool) string {
	switch {
	case read && acquire:
		return "RLocked"
	case read:
		return "RUnlocked"
	case acquire:
		return "locked"
	}
	return "unlocked"
}

// replay simulates the event sequence, reporting order inversions,
// cross-call inversions (against the fixed-point summaries), and unpaired
// Locks/RLocks.
func replay(pass *analysis.Pass, g *callgraph.Graph, self *callgraph.Func, name string, events []event, sums map[*callgraph.Func]lockSummary) {
	type heldLock struct {
		ref        mutexRef
		pos        token.Pos
		deferFreed bool
	}
	var held []heldLock
	var pendingDefers []mutexRef // defers seen before their Lock (rare)

	for _, ev := range events {
		switch ev.kind {
		case evAcquire:
			for _, h := range held {
				if h.ref.rank > ev.ref.rank {
					pass.Reportf(ev.pos,
						"acquires %s while %s (held since %s) — inverts the documented lock order %s",
						ev.ref.label, h.ref.label, pass.Fset.Position(h.pos), docOrder)
				}
			}
			// A defer registered before the Lock still pairs with it.
			paired := false
			for i, d := range pendingDefers {
				if d.key == ev.ref.key && d.read == ev.ref.read {
					pendingDefers = append(pendingDefers[:i], pendingDefers[i+1:]...)
					paired = true
					break
				}
			}
			held = append(held, heldLock{ref: ev.ref, pos: ev.pos, deferFreed: paired})
		case evRelease:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].ref.key == ev.ref.key && held[i].ref.read == ev.ref.read && !held[i].deferFreed {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case evDeferRelease:
			matched := false
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].ref.key == ev.ref.key && held[i].ref.read == ev.ref.read && !held[i].deferFreed {
					held[i].deferFreed = true // held to function end, but paired
					matched = true
					break
				}
			}
			if !matched {
				pendingDefers = append(pendingDefers, ev.ref)
			}
		case evCall:
			if len(held) == 0 {
				continue
			}
			callee := g.ByObj[ev.fn]
			if callee == nil || callee == self {
				continue
			}
			for k, via := range sums[callee] {
				for _, h := range held {
					if h.ref.rank <= k.rank {
						continue
					}
					if via == "" {
						pass.Reportf(ev.pos,
							"call to %s acquires %s while %s is held (since %s) — inverts the documented lock order %s across one call",
							callee.Name, rankLabels[k.rank], h.ref.label, pass.Fset.Position(h.pos), docOrder)
					} else {
						pass.Reportf(ev.pos,
							"call to %s transitively acquires %s (via %s) while %s is held (since %s) — inverts the documented lock order %s",
							callee.Name, rankLabels[k.rank], via, h.ref.label, pass.Fset.Position(h.pos), docOrder)
					}
				}
			}
		}
	}

	for _, h := range held {
		if h.deferFreed {
			continue
		}
		release := "Unlock"
		if h.ref.read {
			release = "RUnlock"
		}
		pass.Reportf(h.pos,
			"%s is %s here but never %s in %s (no %s or defer on any path); annotate intentional handoffs with //unikv:allow(lockorder)",
			h.ref.label, modeName(h.ref.read, true), modeName(h.ref.read, false), name, release)
	}
}
