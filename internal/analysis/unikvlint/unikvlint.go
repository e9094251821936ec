// Package unikvlint bundles the UniKV invariant checkers. Each analyzer
// machine-checks an invariant that a previous PR violated (or nearly did)
// and that was, until now, enforced only by comments and stress tests:
//
//   - lockorder: the mutex hierarchy documented in internal/core/db.go
//     (PR 2 shipped a cross-partition inversion found only by -race stress).
//   - vfsonly: all storage I/O goes through vfs.FS, never package os.
//   - syncpublish: every Create/Rename reaches a SyncDir publish point
//     (PR 3 found every publish point in the tree missing one).
//   - atomiccounter: no mixed atomic/plain access to the same variable.
//   - refpair: acquired references (a pinned partition version, a
//     NewSnapshot handle) are released on every error path — a leaked ref
//     keeps every file the version names on disk for good.
//   - errclass: errors constructed on the background-job path carry their
//     class, so Classify never defaults a corruption to transient-and-retry
//     (the PR 5 taxonomy, now machine-checked).
//   - atomicpublish: copy-on-write discipline around atomic.Pointer fields
//     — complete-before-Store, never mutate a Load (the PR 8 pre-fix
//     out-of-order publish shape).
//
// Since ISSUE 9 the checkers reason interprocedurally: fixed-point effect
// summaries over the package call graph (internal/analysis/callgraph)
// replace the one-level lookahead of PR 4, so an inversion, a leak, or an
// unclassified error hidden N helpers deep is still found. See DESIGN.md
// §5f for the invariant table.
//
// cmd/unikvlint runs the suite under `go vet -vettool`; findings are
// suppressed case-by-case with `//unikv:allow(<check>) reason`, and
// suppressions that no longer suppress anything are themselves reported as
// stale.
package unikvlint

import (
	"unikv/internal/analysis"
	"unikv/internal/analysis/unikvlint/atomiccounter"
	"unikv/internal/analysis/unikvlint/atomicpublish"
	"unikv/internal/analysis/unikvlint/errclass"
	"unikv/internal/analysis/unikvlint/lockorder"
	"unikv/internal/analysis/unikvlint/refpair"
	"unikv/internal/analysis/unikvlint/syncpublish"
	"unikv/internal/analysis/unikvlint/vfsonly"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		vfsonly.Analyzer,
		syncpublish.Analyzer,
		atomiccounter.Analyzer,
		refpair.Analyzer,
		errclass.Analyzer,
		atomicpublish.Analyzer,
	}
}
