// Package detwalltime enforces the DES-determinism clock invariant: the
// deterministic simulation is the repo's correctness oracle (DESIGN.md
// §1, §7), so DES-reachable packages must never read the wall clock or
// draw from the process-global math/rand source. Virtual time enters
// only through the transport surface (transport.Time, Proc.Sleep,
// Schedule) and randomness only through seeded rand.New(rand.NewSource)
// instances; internal/livenet is the single place wall-clock is real.
package detwalltime

import (
	"go/ast"
	"go/types"

	"chc/internal/analysis/chcanalysis"
)

// DESPackages is the DES-reachable set the determinism analyzers police.
// internal/transport (interface only) and internal/livenet (the live
// substrate, where wall-clock is the point) are deliberately absent.
var DESPackages = []string{
	"chc/internal/runtime",
	"chc/internal/store",
	"chc/internal/nf",
	"chc/internal/simnet",
	"chc/internal/vtime",
	"chc/internal/experiments",
	"chc/internal/clockset",
}

// PortedPackages is the substrate-PORTED subset: code that runs on both
// simnet and livenet behind transport.Transport, where raw concurrency
// primitives would diverge the two substrates. vtime and simnet are
// substrate IMPLEMENTATIONS — vtime's goroutine/channel machinery IS the
// deterministic scheduler — so the transport-discipline rules do not
// apply there (the clock rules still do).
var PortedPackages = []string{
	"chc/internal/runtime",
	"chc/internal/store",
	"chc/internal/nf",
	"chc/internal/experiments",
}

// bannedTime are the package time functions that read or wait on the
// wall clock. time.Duration and arithmetic on transport.Time stay legal.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "Since": true, "Until": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// bannedRand are math/rand package-level functions: they draw from the
// process-global source, whose sequence is shared across everything in
// the process and (for Seed-less use) varies run to run.
var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Uint32": true, "Uint64": true, "Float32": true,
	"Float64": true, "ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true, "N": true,
}

// Analyzer is the detwalltime pass.
var Analyzer = &chcanalysis.Analyzer{
	Name:     "detwalltime",
	Doc:      "forbid wall-clock reads (time.Now/Sleep/After/Since/...) and the global math/rand source in DES-reachable packages; time may only advance through the transport substrate",
	Packages: DESPackages,
	Run:      run,
}

func run(pass *chcanalysis.Pass) error {
	if !pass.InScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			switch chcanalysis.PkgPath(fn) {
			case "time":
				if bannedTime[fn.Name()] && chcanalysis.RecvNamed(fn) == "" {
					pass.Reportf(id.Pos(), "wall-clock time.%s in DES-reachable package %s; use the transport substrate (Proc.Sleep/Schedule/Now) so DES runs stay deterministic", fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if bannedRand[fn.Name()] && chcanalysis.RecvNamed(fn) == "" {
					pass.Reportf(id.Pos(), "global math/rand.%s in DES-reachable package %s; draw from a seeded rand.New(rand.NewSource(seed)) owned by the component", fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
