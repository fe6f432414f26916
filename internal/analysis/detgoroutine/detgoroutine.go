// Package detgoroutine confines concurrency to the two sanctioned
// packages: internal/engine, whose order-preserving worker pool is what
// makes parallel trials reproducible, and internal/serve, the job-service
// layer whose goroutines carry whole jobs (queue consumers, render
// spawns, timeout selects) and never touch simulation state — a job's
// output bytes come out of the engine byte-identical regardless of how
// the service schedules it. Everywhere else, a `go` statement, a
// `select`, or a sync/sync.atomic primitive is a latent scheduling
// dependency: even when the code is race-free, completion order can leak
// into float sums, slice ordering, or RNG draw order and break the
// byte-identical-output contract.
//
// No code outside the sanctioned packages is exempt. A process-wide cache
// of pure values (dsp's FFT plans, netsim's decode-threshold tables,
// permodel's certificate tables) is an engine.Memo, so it needs no
// concurrency of its own, and internal/analysis/detrand's
// TestDirectivesStayInEngine fails on a detgoroutine allow directive in
// any non-test file.
package detgoroutine

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "detgoroutine",
	Doc: "flag go statements, select statements, and sync/sync.atomic usage outside " +
		"internal/engine and internal/serve, the sanctioned concurrency sites; " +
		"scheduling order anywhere else can leak into experiment output",
	Run: run,
}

// sanctioned reports whether pkgPath is one of the concurrency-sanctioned
// packages (module-qualified in the real repo, bare in test fixtures):
// internal/engine (the worker pool) and internal/serve (the job service).
func sanctioned(pkgPath string) bool {
	for _, p := range []string{"internal/engine", "internal/serve"} {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if sanctioned(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside internal/engine and internal/serve: goroutine scheduling can leak into experiment output; route parallelism through the engine worker pool")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement outside internal/engine and internal/serve: channel readiness order is scheduler-dependent")
			case *ast.SelectorExpr:
				if id, isIdent := n.X.(*ast.Ident); isIdent {
					if pn, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
						switch pn.Imported().Path() {
						case "sync", "sync/atomic":
							pass.Reportf(n.Pos(),
								"sync primitive (%s.%s) outside internal/engine and internal/serve, the sanctioned concurrency sites", pn.Imported().Name(), n.Sel.Name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
