// Package snapshotcomplete machine-enforces the checkpoint contract
// that System.Snapshot/Restore introduced: a snapshot must capture
// every piece of simulation-time state, so a restored run is
// bit-identical to an uninterrupted one. The classic way that contract
// rots is a new field that gets mutated during simulation but is
// forgotten by the Snapshot/Restore pair — TestEngineEquivalence's
// checkpoint cases catch it only if the stale value happens to change
// a pinned result.
//
// For every struct type that declares both a Snapshot (or snapshot)
// and a Restore (or restore) method, the analyzer computes two
// per-package sets:
//
//   - mutated: fields written during simulation — assigned, inc/dec'd,
//     passed to clear/delete/copy, or used as the receiver of a
//     pointer-receiver or interface method call — anywhere outside the
//     type's constructors (New*/new*/init) and the methods reachable
//     from its Snapshot or Restore;
//
//   - handled: fields the Snapshot or Restore method (or a same-type
//     method either calls, transitively) touches at all, plus every
//     field when Restore assigns the whole struct (*r = T{...}).
//
// Every mutated-but-unhandled field is reported at its declaration. A
// field that deliberately stays out of the snapshot — a derived index
// rebuilt on restore, a scratch buffer, debug-only state, a binding
// serialized by another layer — must say so:
//
//	//fglint:preserved <why omitting this field cannot desynchronize a restored run>
//
// This is an AST-and-types approximation of the SSA write set,
// conservative toward spurious "annotate this field" reports rather than
// silently missed state.
package snapshotcomplete

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the snapshotcomplete check.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotcomplete",
	Doc: "verify that every field mutated during simulation travels in (or is explicitly " +
		"//fglint:preserved out of) its struct's Snapshot/Restore pair",
	Run: run,
}

// checked is one struct type with a Snapshot/Restore pair.
type checked struct {
	named   *types.Named
	fields  map[string]*ast.Field // field name -> declaration
	order   []string              // declaration order, for deterministic reports
	methods map[string]*ast.FuncDecl
	// capture holds the Snapshot and Restore declarations; captureReach
	// is capture + same-type methods reachable from it. It defines the
	// handled set, and writes inside it are not simulation-time
	// mutation.
	capture      []*ast.FuncDecl
	captureReach map[*ast.FuncDecl]bool
	handled      map[string]bool
	mutated      map[string]ast.Node // field -> one mutation site (diagnostics)
}

func run(pass *analysis.Pass) error {
	targets := collectTargets(pass)
	if len(targets) == 0 {
		return nil
	}
	for _, t := range targets {
		t.captureReach = reachable(pass, t, t.capture)
		computeHandled(pass, t)
	}
	collectMutations(pass, targets)
	return nil
}

// collectTargets finds the package's struct types that declare both a
// Snapshot/snapshot and a Restore/restore method.
func collectTargets(pass *analysis.Pass) []*checked {
	byNamed := make(map[*types.Named]*checked)
	var order []*checked

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			named := recvNamed(pass, fd)
			if named == nil || named.Obj().Pkg() != pass.Pkg {
				continue
			}
			c := byNamed[named]
			if c == nil {
				c = &checked{
					named:   named,
					fields:  make(map[string]*ast.Field),
					methods: make(map[string]*ast.FuncDecl),
					handled: make(map[string]bool),
					mutated: make(map[string]ast.Node),
				}
				byNamed[named] = c
				order = append(order, c)
			}
			c.methods[fd.Name.Name] = fd
		}
	}

	var targets []*checked
	for _, c := range order {
		if _, ok := c.named.Underlying().(*types.Struct); !ok {
			continue
		}
		snap := c.methods["Snapshot"]
		if snap == nil {
			snap = c.methods["snapshot"]
		}
		restore := c.methods["Restore"]
		if restore == nil {
			restore = c.methods["restore"]
		}
		if snap == nil || restore == nil {
			continue
		}
		c.capture = []*ast.FuncDecl{snap, restore}
		fillFieldDecls(pass, c)
		targets = append(targets, c)
	}
	return targets
}

// fillFieldDecls locates the struct type's field declarations in the AST.
func fillFieldDecls(pass *analysis.Pass, c *checked) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || pass.Info.Defs[ts.Name] != c.named.Obj() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						c.fields[name.Name] = f
						c.order = append(c.order, name.Name)
					}
				}
				return
			}
		}
	}
}

// reachable marks the root methods plus every same-type method they
// (transitively) call on their own receiver value.
func reachable(pass *analysis.Pass, c *checked, roots []*ast.FuncDecl) map[*ast.FuncDecl]bool {
	seen := make(map[*ast.FuncDecl]bool, len(roots))
	var work []*ast.FuncDecl
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		fd := work[0]
		work = work[1:]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if derefNamed(pass.TypeOf(sel.X)) != c.named {
				return true
			}
			if m, ok := c.methods[sel.Sel.Name]; ok && !seen[m] {
				seen[m] = true
				work = append(work, m)
			}
			return true
		})
	}
	return seen
}

// computeHandled marks every field the Snapshot/Restore-reachable code
// touches (any selector mention), and all fields when the whole struct
// is assigned.
func computeHandled(pass *analysis.Pass, c *checked) {
	wholeStruct := false
	for fd := range c.captureReach {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if derefNamed(pass.TypeOf(n.X)) == c.named {
					if _, ok := c.fields[n.Sel.Name]; ok {
						c.handled[n.Sel.Name] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if star, ok := lhs.(*ast.StarExpr); ok &&
						derefNamed(pass.TypeOf(star.X)) == c.named {
						wholeStruct = true
					}
				}
			}
			return true
		})
	}
	if wholeStruct {
		for name := range c.fields {
			c.handled[name] = true
		}
	}
}

// collectMutations walks every function body in the package and
// attributes potential field writes to the checked types, excluding
// each type's constructors and Snapshot/Restore-reachable methods.
func collectMutations(pass *analysis.Pass, targets []*checked) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctorLike := isConstructorLike(fd.Name.Name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						attribute(pass, targets, fd, ctorLike, lhs, n)
					}
				case *ast.IncDecStmt:
					attribute(pass, targets, fd, ctorLike, n.X, n)
				case *ast.CallExpr:
					attributeCall(pass, targets, fd, ctorLike, n)
				}
				return true
			})
		}
	}
	for _, t := range targets {
		for _, name := range t.order {
			site := t.mutated[name]
			if site == nil || t.handled[name] {
				continue
			}
			field := t.fields[name]
			reason, annotated := pass.Annotation(field, analysis.MarkerPreserved)
			if annotated {
				if reason == "" {
					pass.Reportf(field.Pos(), "//fglint:preserved annotation needs a reason")
				}
				continue
			}
			pass.Reportf(field.Pos(),
				"field %s of %s is mutated during simulation (e.g. at %s) but never touched by "+
					"its Snapshot/Restore pair; serialize it, or annotate with //fglint:preserved <reason>",
				name, t.named.Obj().Name(), pass.Fset.Position(site.Pos()))
		}
	}
}

// attributeCall records mutations implied by a call: clear/delete/copy
// on a field, or a pointer-receiver/interface method invoked on a
// field.
func attributeCall(pass *analysis.Pass, targets []*checked, fd *ast.FuncDecl, ctorLike bool, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "clear", "delete", "copy":
			if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				attribute(pass, targets, fd, ctorLike, call.Args[0], call)
			}
		}
	case *ast.SelectorExpr:
		selection := pass.Info.Selections[fun]
		if selection == nil || selection.Kind() != types.MethodVal {
			return // package-qualified call or func-valued field: not a receiver
		}
		if !maybeMutatingMethod(selection) {
			return
		}
		attribute(pass, targets, fd, ctorLike, fun.X, call)
	}
}

// maybeMutatingMethod reports whether a method call could mutate its
// receiver: pointer receiver, or an interface method (unknowable,
// assume yes).
func maybeMutatingMethod(selection *types.Selection) bool {
	if types.IsInterface(selection.Recv()) {
		return true
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	return isPtr
}

// attribute walks expr's selector chain and records a mutation for
// every checked-type field it passes through.
func attribute(pass *analysis.Pass, targets []*checked, fd *ast.FuncDecl, ctorLike bool, expr ast.Expr, site ast.Node) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if named := derefNamed(pass.TypeOf(e.X)); named != nil {
				for _, t := range targets {
					if t.named != named {
						continue
					}
					if ctorLike || t.captureReach[fd] {
						continue // construction and checkpoint writes are not simulation state
					}
					if _, ok := t.fields[e.Sel.Name]; ok {
						if t.mutated[e.Sel.Name] == nil {
							t.mutated[e.Sel.Name] = site
						}
					}
				}
			}
			expr = e.X
		default:
			return
		}
	}
}

func isConstructorLike(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

// recvNamed resolves a method declaration's receiver base type.
func recvNamed(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	return derefNamed(pass.TypeOf(fd.Recv.List[0].Type))
}

// derefNamed returns the named type behind t, unwrapping one pointer.
func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
