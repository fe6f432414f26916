// Package detrand enforces the repo's RNG discipline: randomness flows
// only through parameter-passed *rand.Rand values seeded from plumbed
// configuration (engine.Config.Seed and its splitmix64-derived per-trial
// streams).
//
// Three patterns break reproducibility and are flagged:
//
//  1. Top-level math/rand functions (rand.Intn, rand.Float64, ...): they
//     draw from the shared process-wide source, so draw order depends on
//     goroutine interleaving.
//  2. rand.Seed: reseeding the global source is both racy and a hidden
//     input to every later global draw.
//  3. rand.NewSource(expr) where expr contains a function call: the
//     canonical offender is time.Now().UnixNano(), but any call-derived
//     seed hides an extra input to the draw stream. Deriving a child
//     source from a parent stream (rand.NewSource(rng.Int63())) is
//     sanctioned in one place: engine.ChildRNG, whose allow directive
//     states that the parent draw is part of the contracted draw order.
//     Every other bridge calls it instead of carrying a directive of its
//     own, and TestDirectivesStayInEngine fails on a detrand directive
//     outside internal/engine.
package detrand

import (
	"go/ast"

	"repro/internal/analysis/framework"
)

// globalDraws are the math/rand (and math/rand/v2) top-level functions
// that consume the shared source. Constructors (New, NewSource, NewZipf,
// NewPCG, NewChaCha8) are excluded: they only build generators.
var globalDraws = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"Uint": true, "N": true,
}

// randPkgs are the package paths the analyzer polices.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

var Analyzer = &framework.Analyzer{
	Name: "detrand",
	Doc: "flag global math/rand draws, rand.Seed, and rand.NewSource seeds derived " +
		"from calls: RNGs must be parameter-passed *rand.Rand seeded from plumbed " +
		"configuration, so the draw stream is a pure function of engine.Config.Seed",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			pkg, name, resolved := framework.CalleePkgFunc(pass.TypesInfo, call)
			if !resolved || !randPkgs[pkg] {
				return true
			}
			switch {
			case name == "Seed":
				pass.Reportf(call.Pos(),
					"rand.Seed reseeds the process-wide source; seed a parameter-passed *rand.Rand from plumbed configuration instead")
			case globalDraws[name]:
				pass.Reportf(call.Pos(),
					"rand.%s draws from the process-wide source (draw order depends on scheduling); pass a *rand.Rand parameter instead", name)
			case name == "NewSource" || name == "NewPCG" || name == "NewChaCha8":
				checkSeedArgs(pass, call, name)
			}
			return true
		})
	}
	return nil
}

// checkSeedArgs flags seed expressions that contain function calls. A seed
// must be traceable to plumbed configuration — a constant, a parameter, a
// struct field — not manufactured at the call site. Conversions and
// builtins are transparent; any other call is reported, with a sharper
// message when the call reaches into a nondeterministic package.
func checkSeedArgs(pass *framework.Pass, call *ast.CallExpr, ctor string) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, isCall := n.(*ast.CallExpr)
			if !isCall || framework.IsConversionOrBuiltin(pass.TypesInfo, inner) {
				return true
			}
			if pkg, name, found := findNondetCall(pass, inner); found {
				pass.Reportf(call.Pos(),
					"rand.%s seed derives from %s.%s: the draw stream is no longer a function of the configured seed", ctor, pkg, name)
				return false
			}
			pass.Reportf(call.Pos(),
				"rand.%s seed contains a call (%s); seeds must be plumbed constants or parameters — bridge a child stream from a parent RNG with engine.ChildRNG", ctor, callLabel(inner))
			return false
		})
	}
}

// findNondetCall looks inside expr (itself a call) for any call into a
// nondeterministic package, so rand.NewSource(time.Now().UnixNano()) is
// pinned on time.Now rather than generically on UnixNano.
func findNondetCall(pass *framework.Pass, expr ast.Expr) (pkg, name string, found bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		inner, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if p, fn, resolved := framework.CalleePkgFunc(pass.TypesInfo, inner); resolved && nondetSeedSource(p) {
			pkg, name, found = p, fn, true
			return false
		}
		return true
	})
	return pkg, name, found
}

// nondetSeedSource reports whether a package read inside a seed expression
// is inherently nondeterministic input.
func nondetSeedSource(pkg string) bool {
	switch pkg {
	case "time", "crypto/rand", "os":
		return true
	}
	return false
}

// callLabel renders a short human label for the offending call.
func callLabel(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, isIdent := fun.X.(*ast.Ident); isIdent {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
