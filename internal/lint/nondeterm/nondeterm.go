// Package nondeterm flags sources of run-to-run nondeterminism in the
// timing-path packages: wall-clock reads (time.Now, time.Since), the
// global math/rand generator, ambient process state (os.Getenv and
// friends), and fmt-printing of map values. Simulated results must be a
// pure function of sim.Config — wall-clock time and environment may only
// enter through harness and cmd, and all randomness must flow from
// seeded, run-owned generators (workload generators, stats.Reservoir).
//
// A call that provably cannot affect results may carry a trailing (or
// directly preceding) annotation:
//
//	//fglint:deterministic <why this cannot affect results>
package nondeterm

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the nondeterm check.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterm",
	Doc: "flag wall-clock reads, global math/rand, os environment access, and fmt-printing " +
		"of maps in timing-path packages; annotate provably harmless calls with " +
		"//fglint:deterministic <reason>",
	Run: run,
}

// banned maps fully qualified package-level functions to the reason they
// are flagged.
var banned = map[string]string{
	"time.Now":     "wall-clock time",
	"time.Since":   "wall-clock time",
	"time.Until":   "wall-clock time",
	"os.Getenv":    "ambient process state",
	"os.LookupEnv": "ambient process state",
	"os.Environ":   "ambient process state",
}

// fmtPrinters are the fmt functions whose output ordering matters when
// handed a map value.
var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsTimingPath(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods are fine; the globals are the hazard
			}
			pkgPath, name := fn.Pkg().Path(), fn.Name()
			full := pkgPath + "." + name
			switch {
			case banned[full] != "":
				report(pass, call, "%s reads %s; simulation results must be a pure function "+
					"of sim.Config (only harness/cmd may observe the environment)", full, banned[full])
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !strings.HasPrefix(name, "New"):
				report(pass, call, "%s draws from the process-global generator; use a seeded, "+
					"run-owned source (rand.New, stats.Reservoir) instead", full)
			case pkgPath == "fmt" && fmtPrinters[name]:
				for _, arg := range call.Args {
					if t := pass.TypeOf(arg); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							report(pass, call, "fmt.%s formats a map argument; map formatting "+
								"order is outside the simulator's determinism contract — print "+
								"sorted keys explicitly", name)
							break
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

func report(pass *analysis.Pass, n ast.Node, format string, args ...any) {
	reason, annotated := pass.Annotation(n, analysis.MarkerDeterministic)
	if annotated {
		if reason == "" {
			pass.Reportf(n.Pos(), "//fglint:deterministic annotation needs a reason")
		}
		return
	}
	pass.Reportf(n.Pos(), format, args...)
}
