// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// with a Run function over one type-checked package (a Pass), reporting
// Diagnostics. The real x/tools module cannot be vendored here (the build
// must work from the standard library alone), so fglint's analyzers are
// written against this mirror of the API shape; porting them to the real
// framework is a mechanical import swap.
//
// The package also hosts the fglint-specific conventions shared by all
// analyzers: the timing-path package sets and the //fglint:deterministic
// and //fglint:preserved source annotations (see Annotation).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in fglint -only.
	Name string
	// Doc is a one-paragraph description, shown by fglint -list.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Reportf. The error return is for analysis failures (the check
	// could not run), not for findings.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (comments included),
	// sorted by file name. Test files are not loaded.
	Files []*ast.File
	// PkgPath is the package's import path. For analysistest packages it
	// is the path relative to the testdata source root, so testdata laid
	// out as testdata/src/internal/sim/... exercises the timing-path
	// predicates exactly like the real tree.
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	report func(Diagnostic)

	// lineComments caches the per-file line -> comments index used by
	// Annotation, built lazily on first use.
	lineComments map[*ast.File]map[int][]*ast.Comment
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diag is a finding resolved to a concrete file position, as produced by
// Run for drivers (fglint, the self-clean test).
type Diag struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Unit is the input Run needs for one package; the loader produces it.
type Unit struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Run applies every analyzer to every unit and returns the findings
// sorted by file position then analyzer name, so output is deterministic
// regardless of analyzer or package order.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diag, error) {
	var out []Diag
	for _, u := range units {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     u.Fset,
				Files:    u.Files,
				PkgPath:  u.PkgPath,
				Pkg:      u.Pkg,
				Info:     u.Info,
			}
			pass.report = func(d Diagnostic) {
				out = append(out, Diag{
					Analyzer: a.Name,
					Position: u.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.PkgPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// TimingPathPackages are the package base paths whose code runs inside a
// simulation and therefore must be deterministic: equal configs must
// produce bit-identical Results on every run, engine, and machine (the
// fingerprint cache contract, ARCHITECTURE.md). Wall-clock time and
// ambient process state may only enter through harness and cmd.
var TimingPathPackages = []string{
	"internal/sim",
	"internal/cpu",
	"internal/cache",
	"internal/core",
	"internal/memctrl",
	"internal/dram",
	"internal/spice",
	"internal/workload",
}

// OrderSensitivePackages extends the timing path with the packages whose
// *output* must be byte-identical across runs — harness table building,
// expcache entries and manifests, and the directories dispatch
// assembles — where map iteration order (though not wall-clock
// use) is still a determinism hazard.
var OrderSensitivePackages = append([]string{
	"internal/harness",
	"internal/expcache",
	"internal/dispatch",
}, TimingPathPackages...)

func matchesBase(pkgPath, base string) bool {
	return pkgPath == base || strings.HasSuffix(pkgPath, "/"+base)
}

// IsTimingPath reports whether pkgPath is one of the timing-path
// packages. The match ignores the module prefix so both "repro/internal/
// sim" and a testdata package named "internal/sim" qualify.
func IsTimingPath(pkgPath string) bool {
	for _, base := range TimingPathPackages {
		if matchesBase(pkgPath, base) {
			return true
		}
	}
	return false
}

// IsOrderSensitive reports whether pkgPath must produce deterministically
// ordered output (timing path plus harness/expcache).
func IsOrderSensitive(pkgPath string) bool {
	for _, base := range OrderSensitivePackages {
		if matchesBase(pkgPath, base) {
			return true
		}
	}
	return false
}

// Annotation markers. An annotation is a comment of the form
//
//	//fglint:deterministic <reason>
//	//fglint:preserved <reason>
//
// placed either on the flagged statement's starting line (trailing
// comment) or alone on the line directly above it. The reason is
// mandatory: an annotation suppresses a diagnostic, so it must say why
// the flagged construct cannot affect results.
const (
	MarkerDeterministic = "fglint:deterministic"
	MarkerPreserved     = "fglint:preserved"
)

// Annotation looks for the given marker annotating node and returns its
// reason. ok is false when there is no annotation; an annotation with an
// empty reason returns ok=true with reason "" — callers treat that as a
// violation of the annotation contract and report it.
func (p *Pass) Annotation(node ast.Node, marker string) (reason string, ok bool) {
	file := p.fileOf(node.Pos())
	if file == nil {
		return "", false
	}
	if p.lineComments == nil {
		p.lineComments = make(map[*ast.File]map[int][]*ast.Comment)
	}
	index, built := p.lineComments[file]
	if !built {
		index = make(map[int][]*ast.Comment)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				line := p.Fset.Position(c.Pos()).Line
				index[line] = append(index[line], c)
			}
		}
		p.lineComments[file] = index
	}
	line := p.Fset.Position(node.Pos()).Line
	for _, candidate := range [][]*ast.Comment{index[line], index[line-1]} {
		for _, c := range candidate {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, marker) {
				continue
			}
			rest := text[len(marker):]
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				continue // e.g. fglint:deterministic-ish, a different marker
			}
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
