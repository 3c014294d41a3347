// Package lint assembles the fglint analyzer suite: the registry of AST
// analyzers (maprange, nondeterm, snapshotcomplete) plus a convenience
// runner that loads module packages and applies them. The diff-aware
// versionguard check lives in its own package and is driven separately
// (it inspects git history, not a package at a time); cmd/fglint wires
// both together.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
	"repro/internal/lint/maprange"
	"repro/internal/lint/nondeterm"
	"repro/internal/lint/snapshotcomplete"
)

// Analyzers returns the AST analyzer suite in its canonical order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maprange.Analyzer,
		nondeterm.Analyzer,
		snapshotcomplete.Analyzer,
	}
}

// CheckModule loads the packages matched by patterns (relative to the
// module root; "./..." style) and runs the given analyzers over them,
// returning position-sorted findings. Passing nil analyzers runs the
// whole suite.
func CheckModule(root string, analyzers []*analysis.Analyzer, patterns ...string) ([]analysis.Diag, error) {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	loader, err := load.NewModuleLoader(root)
	if err != nil {
		return nil, err
	}
	normalized := make([]string, 0, len(patterns))
	for _, pat := range patterns {
		// Accept the go-command spellings "./..." and "./x" too.
		switch {
		case pat == "./...":
			pat = "..."
		default:
			pat = trimDotSlash(pat)
		}
		normalized = append(normalized, pat)
	}
	if len(normalized) == 0 {
		normalized = []string{"..."}
	}
	pkgs, err := loader.Load(normalized...)
	if err != nil {
		return nil, err
	}
	units := make([]*analysis.Unit, 0, len(pkgs))
	for _, p := range pkgs {
		units = append(units, &analysis.Unit{
			PkgPath: p.PkgPath, Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info,
		})
	}
	return analysis.Run(units, analyzers)
}

func trimDotSlash(pat string) string {
	if len(pat) > 2 && pat[0] == '.' && pat[1] == '/' {
		return pat[2:]
	}
	return pat
}
