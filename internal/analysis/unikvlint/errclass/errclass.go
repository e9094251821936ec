// Package errclass enforces error-class discipline on the background-job
// path. The scheduler's retry policy (internal/core/scheduler.go) is keyed
// entirely off Classify, and Classify defaults UNKNOWN errors to transient:
// a fresh errors.New("checksum mismatch") constructed four frames below
// runWithRetry is retried with backoff — re-reading the same corrupt bytes
// — instead of tripping degraded mode immediately. Every error constructed
// on a path reachable from runWithRetry must therefore carry its class:
// wrapped by WithClass/classified at the construction site, or built with
// a %w verb so a classified sentinel (codec.ErrCorrupt and friends) stays
// visible to errors.Is/As.
//
// Reachability is computed over the package call graph
// (internal/analysis/callgraph) from every function named runWithRetry.
// The engine has exactly one, scheduler.runWithRetry: the pool's workers
// and the scrub driver on a store without workers both go through it, and
// it calls the same scheduler.run a caller-run job enters — so the whole
// job tree (run, flushJob/merge/scanMerge/gc, splitPartition,
// scrubPartitionTables, their helpers) is on the path, at any depth,
// whichever executor runs it. The check is intra-package like
// the rest of the framework: errors constructed in callee PACKAGES
// (sstable, vlog, ...) are out of reach, which is fine — those packages
// export the sentinels Classify already recognizes.
package errclass

import (
	"go/ast"
	"go/token"
	"strings"

	"unikv/internal/analysis"
	"unikv/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "errclass",
	Doc: "forbid unclassified error construction (errors.New, fmt.Errorf " +
		"without %w) on paths reachable from runWithRetry: Classify defaults " +
		"unknown errors to transient, so an unclassified corruption error " +
		"would be retried instead of tripping degraded mode",
	Run: run,
}

func init() { analysis.RegisterCheck(Analyzer.Name) }

func run(pass *analysis.Pass) (any, error) {
	g := callgraph.Build(pass)
	var roots []*callgraph.Func
	for _, f := range g.Funcs {
		if f.Name == "runWithRetry" && !f.TestFile {
			roots = append(roots, f)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	reach := callgraph.Reachable(roots...)

	for _, f := range g.Funcs {
		if !reach[f] || f.TestFile {
			continue
		}
		checkFunc(pass, f)
	}
	return nil, nil
}

// checkFunc flags unclassified constructions in f's body. The walk tracks
// the enclosing call so a construction that is immediately an argument to
// WithClass or classified is exempt.
func checkFunc(pass *analysis.Pass, f *callgraph.Func) {
	var stack []ast.Node
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := constructionKind(pass, call)
		if kind == "" {
			return true
		}
		if wrappedByClassifier(pass, stack, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"unclassified %s on the background-job path (%s is reachable from runWithRetry): "+
				"Classify defaults unknown errors to transient and the scheduler would retry it — "+
				"wrap with WithClass/classified or %%w a classified sentinel",
			kind, f.Name)
		return true
	})
}

// constructionKind reports how call builds a classless error: "errors.New"
// or "fmt.Errorf without %w" — or "" when it does not. fmt.Errorf with a
// %w verb inherits the wrapped error's class through errors.Is/As, and a
// non-literal format string is given the benefit of the doubt.
func constructionKind(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "errors.New":
		return "errors.New"
	case "fmt.Errorf":
		if len(call.Args) == 0 {
			return ""
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "" // dynamic format: cannot prove it lacks %w
		}
		if strings.Contains(lit.Value, "%w") {
			return ""
		}
		return "fmt.Errorf without %w"
	}
	return ""
}

// wrappedByClassifier reports whether call appears directly as an argument
// of a WithClass or classified call (stack is the ancestor chain, call
// last).
func wrappedByClassifier(pass *analysis.Pass, stack []ast.Node, call *ast.CallExpr) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		outer, ok := stack[i].(*ast.CallExpr)
		if !ok {
			// Only unwrap expression wrappers between the construction and
			// the classifier (parens); any other node breaks the chain.
			if _, ok := stack[i].(*ast.ParenExpr); ok {
				continue
			}
			return false
		}
		switch calleeName(outer) {
		case "WithClass", "classified":
			return true
		}
		return false
	}
	return false
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
