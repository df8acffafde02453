// Package maporder enforces the DES-determinism iteration invariant: Go
// map iteration order is randomized per process, so a `range` over a map
// whose body emits substrate messages (Send/Call/Spawn/Schedule), writes
// shared metrics, or appends to the controller action log produces a
// different message/record interleaving on every run — exactly the class
// of nondeterminism that breaks golden-trajectory tests like
// TestAutoscaleDESTrajectoryParity and seed-reproducible replay. The fix
// is the sorted-keys idiom (collect keys, sort, range the slice), which
// this repo already uses at e.g. Chain.scaleIn and Splitter.applyScaleOut.
//
// Effects are propagated interprocedurally: a package-local fixed point
// marks every function that (transitively) reaches a substrate emit, a
// metrics write, or the action log, and exports the set as package facts
// so ranges in importing packages (runtime over store helpers,
// experiments over runtime) are caught too.
package maporder

import (
	"go/ast"
	"go/types"

	"chc/internal/analysis/chcanalysis"
	"chc/internal/analysis/detwalltime"
)

// effectsNS is the fact namespace holding qualified names
// (types.Func.FullName) of effectful functions.
const effectsNS = "maporder.effectful"

// substratePkgs are package-path suffixes whose emit methods seed the
// effect set.
var substratePkgs = []string{"internal/transport", "internal/simnet", "internal/livenet", "internal/vtime"}

// emitMethods are the substrate methods whose invocation order is
// observable scheduling input.
var emitMethods = map[string]bool{"Send": true, "Call": true, "Spawn": true, "Schedule": true}

// metricsMethods are the shared-metrics writers on runtime.Metrics and
// runtime.Series whose record order feeds experiment tables and digests.
var metricsMethods = map[string]bool{
	"Add": true, "AddAt": true, "SetCounter": true,
}

// actionLogField is the controller's reconcile-action tail; writes to it
// are ordered records an admin (and tests) read back.
const actionLogField = "lastActions"

// Analyzer is the maporder pass.
var Analyzer = &chcanalysis.Analyzer{
	Name:     "maporder",
	Doc:      "flag range-over-map whose body (transitively) sends substrate messages, writes shared metrics, or appends controller actions; iterate a sorted key slice so DES runs and golden digests stay deterministic",
	Packages: detwalltime.DESPackages,
	Run:      run,
}

func run(pass *chcanalysis.Pass) error {
	effectful := computeEffects(pass)
	for fn := range effectful {
		pass.Facts.Add(effectsNS, fn.FullName())
	}
	if !pass.InScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if why := effectIn(pass, effectful, rng.Body); why != "" {
				pass.Reportf(rng.Pos(), "map iteration order reaches %s; collect the keys, sort them, and range the slice (sorted-keys idiom) so the DES schedule is deterministic", why)
			}
			return true
		})
	}
	return nil
}

// computeEffects runs the package-local fixed point: seed effects are
// direct substrate emits, metrics writes and action-log writes; any
// function whose body calls an effectful function (local or imported, via
// facts) becomes effectful.
func computeEffects(pass *chcanalysis.Pass) map[*types.Func]bool {
	type decl struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []decl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, decl{fn, fd.Body})
			}
		}
	}
	effectful := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if effectful[d.fn] {
				continue
			}
			if effectIn(pass, effectful, d.body) != "" {
				effectful[d.fn] = true
				changed = true
			}
		}
	}
	return effectful
}

// effectIn reports the first effect reached from node (a short
// human-readable description), or "".
func effectIn(pass *chcanalysis.Pass, effectful map[*types.Func]bool, node ast.Node) string {
	why := ""
	ast.Inspect(node, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := chcanalysis.Callee(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if w := seedEffect(fn); w != "" {
				why = w
				return false
			}
			if effectful[fn] || pass.Facts.Has(effectsNS, fn.FullName()) {
				why = fn.FullName()
				return false
			}
		case *ast.Ident:
			if n.Name == actionLogField && isControllerActionField(pass.TypesInfo.Uses[n]) {
				why = "the controller action log (" + actionLogField + ")"
				return false
			}
		}
		return true
	})
	return why
}

// seedEffect classifies a callee as a direct effect seed.
func seedEffect(fn *types.Func) string {
	name := fn.Name()
	pkg := chcanalysis.PkgPath(fn)
	if emitMethods[name] {
		for _, s := range substratePkgs {
			if chcanalysis.PathHasSuffix(pkg, s) {
				return "substrate emit " + fn.FullName()
			}
		}
	}
	if metricsMethods[name] && chcanalysis.PathHasSuffix(pkg, "internal/runtime") {
		if r := chcanalysis.RecvNamed(fn); r == "Metrics" || r == "Series" {
			return "shared-metrics write " + fn.FullName()
		}
	}
	return ""
}

// isControllerActionField reports whether obj is the lastActions field of
// the runtime Controller (not an unrelated identifier of the same name).
func isControllerActionField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return false
	}
	return chcanalysis.PathHasSuffix(chcanalysis.PkgPath(v), "internal/runtime")
}
