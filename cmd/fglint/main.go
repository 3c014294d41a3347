// Command fglint machine-enforces the simulator's standing invariants:
// deterministic iteration in result-affecting code (maprange), no
// wall-clock/global-rand/environment reads on the timing path
// (nondeterm), Snapshot/Restore pairs that cover every
// simulation-mutated field (snapshotcomplete), and — with -base —
// EngineVersion bumps for timing-path changes (versionguard).
//
// Usage:
//
//	fglint [-list] [-only analyzer] [-base ref] [packages...]
//
// Package patterns are module-relative ("./...", "./internal/sim",
// "internal/harness/..."); the default is ./... from the module root.
// Exit status: 0 clean, 1 findings, 2 usage or internal error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/versionguard"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("fglint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	list := fs.Bool("list", false, "list the available analyzers and exit")
	only := fs.String("only", "", "run only the named analyzer")
	base := fs.String("base", "", "also run versionguard against the merge-base with this git ref")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fglint [-list] [-only analyzer] [-base ref] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the unknown-flag message
	}

	all := lint.Analyzers()
	if *list {
		if fs.NArg() > 0 || *only != "" || *base != "" {
			fmt.Fprintln(os.Stderr, "fglint: -list takes no other flags or arguments")
			return 2
		}
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-14s %s\n", versionguard.Name, versionguard.Doc)
		return 0
	}

	analyzers := all
	runVersionGuard := *base != ""
	if *only != "" {
		analyzers = nil
		for _, a := range all {
			if a.Name == *only {
				analyzers = []*analysis.Analyzer{a}
				break
			}
		}
		switch {
		case *only == versionguard.Name:
			if *base == "" {
				fmt.Fprintf(os.Stderr, "fglint: -only %s requires -base <ref>\n", versionguard.Name)
				return 2
			}
		case analyzers == nil:
			fmt.Fprintf(os.Stderr, "fglint: unknown analyzer %q (see fglint -list)\n", *only)
			return 2
		default:
			runVersionGuard = false // a single AST analyzer was selected
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fglint: %v\n", err)
		return 2
	}

	findings := 0
	if len(analyzers) > 0 {
		diags, err := lint.CheckModule(root, analyzers, fs.Args()...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fglint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Println(d)
		}
		findings += len(diags)
	}
	if runVersionGuard {
		vg, err := versionguard.Check(root, *base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fglint: %v\n", err)
			return 2
		}
		for _, f := range vg {
			fmt.Printf("[%s] %s\n", versionguard.Name, f.Message)
		}
		findings += len(vg)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "fglint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
