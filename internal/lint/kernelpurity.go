package lint

import (
	"go/ast"
	"go/types"
)

// KernelPurity encodes the compiled-inference contract: the kernels
// (the driver scopes this rule to internal/graph — Plan/Batch execution,
// the vector kernel, covariance extraction) are pure functions of their
// inputs. A posterior may depend only on the observations and the plan,
// never on the wall clock, a random source, mutable package state, or map
// iteration order; that is what makes lane posteriors bit-identical across
// batch widths and reference goldens meaningful. Flagged:
//
//   - calls into the wall clock (time.Now, time.Since, time.Sleep, ...)
//   - importing math/rand or math/rand/v2
//   - writes to package-level variables outside func init
//   - ranging over a map (iteration order is randomized)
var KernelPurity = &Analyzer{
	Name: "kernelpurity",
	Doc:  "inference kernels must be pure functions of their inputs",
	Run:  runKernelPurity,
}

// impureTimeFuncs are the time package functions that read or wait on the
// wall clock. Pure constructors/conversions (time.Duration, time.Unix) are
// not listed.
var impureTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func runKernelPurity(p *Pass) {
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path := importPath(imp)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Report(imp.Pos(), "kernel imports %s: inference must be deterministic, with randomness injected by the caller (internal/rng) if needed at all", path)
			}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			isInit := fd.Name.Name == "init" && fd.Recv == nil
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.CallExpr:
					if pkg, name := calleePkgFunc(p.Info, s); pkg == "time" && impureTimeFuncs[name] {
						p.Report(s.Pos(), "kernel reads the wall clock (time.%s); posteriors must be pure functions of observations and plan", name)
					}
				case *ast.RangeStmt:
					tv, ok := p.Info.Types[s.X]
					if ok && tv.Type != nil {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							p.Report(s.Pos(), "kernel iterates over a map: iteration order is randomized and would make execution order (and float summation) nondeterministic")
						}
					}
				case *ast.AssignStmt:
					if isInit {
						return true
					}
					for _, lhs := range s.Lhs {
						if v := pkgLevelTarget(p.Info, p.Types, lhs); v != nil {
							p.Report(lhs.Pos(), "kernel writes package-level state %s; kernels must not mutate anything outside their receiver and arguments", v.Name())
						}
					}
				case *ast.IncDecStmt:
					if isInit {
						return true
					}
					if v := pkgLevelTarget(p.Info, p.Types, s.X); v != nil {
						p.Report(s.Pos(), "kernel writes package-level state %s; kernels must not mutate anything outside their receiver and arguments", v.Name())
					}
				}
				return true
			})
		}
	}
}

// importPath returns an import spec's unquoted path.
func importPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}

// calleePkgFunc resolves a call of the form pkg.Func to its package name
// (by import path's base via the PkgName object) and function name; other
// call shapes return "", "".
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkg, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.ObjectOf(id).(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// pkgLevelTarget reports whether an assignment target is rooted at a
// package-level variable of the analyzed package (directly, or through an
// index/field/deref chain like global[i] or global.field), returning that
// variable.
func pkgLevelTarget(info *types.Info, pkg *types.Package, lhs ast.Expr) *types.Var {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			// A selector may be pkg.Var (package qualifier) or expr.Field.
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					lhs = e.Sel
					continue
				}
			}
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.Ident:
			v, ok := info.ObjectOf(e).(*types.Var)
			if !ok || v.Pkg() != pkg {
				return nil
			}
			if v.Parent() == pkg.Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
