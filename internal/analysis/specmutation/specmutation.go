// Package specmutation enforces the controller-only-mutation contract
// from the declarative control plane (DESIGN.md §8): every deployment
// mutation flows through Controller.ApplySpec (or the controller's
// recorded imperative escapes), never through new side doors. Three
// rules:
//
//  1. Inside internal/runtime, the unexported Chain scaling internals
//     (scaleOut, scaleIn, addInstance, ... and publish, the one function
//     that installs a new routing topology) may be called only from the
//     controller layer (controller.go, autoscaler.go) and from the
//     primitive implementations themselves (manager.go). Any other call
//     site is a reconcile bypass the action log will never see.
//  2. A NEW exported method on Chain whose name reads like a deployment
//     mutation (Scale*/Drain*/Move*/Failover*/...) is flagged: the PR 5
//     demotion made ApplySpec the only supported mutation path, and an
//     exported escape hatch reopens it.
//  3. Raw store.Request composite literals are deprecated outside the
//     typed-handle layer: NF state access goes through nf.DeclSet
//     handles; only the packages internal/nf (the handle layer) and
//     internal/store itself may construct Requests. Their subpackages
//     (the NFs under internal/nf, say) may not.
package specmutation

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"

	"chc/internal/analysis/chcanalysis"
)

// scalingInternals are the unexported Chain methods that mutate the
// deployment (the controller's safe primitives).
var scalingInternals = map[string]bool{
	"scaleOut": true, "scaleIn": true, "addInstance": true, "moveFlows": true,
	"failoverNF": true, "cloneStraggler": true, "retainFaster": true,
	"pollScaleIn": true, "finishScaleIn": true, "publish": true,
}

// controllerFiles are the runtime files allowed to invoke the scaling
// internals: the controller layer plus the file defining the primitives.
var controllerFiles = map[string]bool{
	"controller.go": true, "autoscaler.go": true, "manager.go": true,
}

// mutationVerb matches exported method names that read as deployment
// mutations. Recover* (failure recovery) and Run*/Start/Stop (lifecycle)
// are not deployment-shape mutations and stay legal.
var mutationVerb = regexp.MustCompile(`^(Scale|Drain|Retire|Move|Failover|Clone|Retain|Add|Remove|Evict|Rebalance|Apply)`)

// requestAllowed are the package-path suffixes allowed to build raw
// store.Request literals.
var requestAllowed = []string{
	"internal/store",
	"internal/nf",
}

// Analyzer is the specmutation pass.
var Analyzer = &chcanalysis.Analyzer{
	Name: "specmutation",
	Doc:  "deployment mutations must flow through Controller.ApplySpec: no out-of-controller calls to Chain scaling internals, no new exported mutation surface on Chain, no raw store.Request literals outside the typed-handle layer",
	Run:  run,
}

func run(pass *chcanalysis.Pass) error {
	if !pass.InScope {
		return nil
	}
	inRuntime := chcanalysis.PathHasSuffix(pass.Pkg.Path(), "internal/runtime")
	rawRequestOK := slices.ContainsFunc(requestAllowed, func(suffix string) bool {
		return chcanalysis.PathHasSuffix(pass.Pkg.Path(), suffix)
	})
	for _, f := range pass.Files {
		file := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if inRuntime && n.Recv != nil && n.Name.IsExported() && mutationVerb.MatchString(n.Name.Name) {
					if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok && chcanalysis.RecvNamed(fn) == "Chain" {
						pass.Reportf(n.Name.Pos(), "exported mutation surface Chain.%s bypasses Controller.ApplySpec; keep Chain primitives unexported and reconcile through a DeploymentSpec (or add a recorded Controller verb)", n.Name.Name)
					}
				}
			case *ast.CallExpr:
				if !inRuntime || controllerFiles[file] {
					return true
				}
				fn := chcanalysis.Callee(pass.TypesInfo, n)
				if fn != nil && scalingInternals[fn.Name()] && chcanalysis.RecvNamed(fn) == "Chain" && fn.Pkg() == pass.Pkg {
					pass.Reportf(n.Pos(), "call to Chain scaling internal %s from %s: deployment mutations go through Controller.ApplySpec (controller.go/autoscaler.go) so the action log records them", fn.Name(), file)
				}
			case *ast.CompositeLit:
				if rawRequestOK {
					return true
				}
				if named := chcanalysis.NamedOf(pass.TypesInfo.TypeOf(n)); named != nil &&
					named.Obj().Name() == "Request" && chcanalysis.PathHasSuffix(chcanalysis.PkgPath(named.Obj()), "internal/store") {
					pass.Reportf(n.Pos(), "raw store.Request literal outside the typed-handle layer (deprecated since the nf.DeclSet API); use Counter/Gauge/Map/Pool handles or a controller surface")
				}
			}
			return true
		})
	}
	return nil
}
