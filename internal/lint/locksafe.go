package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockSafe is the lock-discipline rule. It is syntactic, which suffices for
// code that takes every lock with the `mu.Lock(); defer mu.Unlock()` idiom.
// It reports:
//
//   - an X.Lock() / X.RLock() statement not followed immediately by
//     defer X.Unlock() / defer X.RUnlock(), and any Unlock/RUnlock that is
//     not deferred (so a correct Lock … Unlock without defer is reported)
//   - anything that can block from such a pair to the end of its block,
//     where the lock is held: channel send or receive, range over a
//     channel, select without default, WaitGroup.Wait, or another
//     Lock/RLock (function literal bodies run elsewhere and are skipped)
//   - a sync primitive embedded by value in a struct: every copy copies the
//     lock, and Lock/Unlock are promoted into the struct's API
//
// Receivers match by the object they resolve to; dynamic receivers such as
// locks[i] are skipped. Copied locks are go vet's copylocks check.
//
// Escape hatch: //bayesvet:locksafe <reason> on the line or the line above.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "Lock is followed by defer Unlock, nothing blocks while it is held, no embedded locks",
	Run:  runLockSafe,
}

const lockSafeDirective = "bayesvet:locksafe"

// unlockFor maps each acquiring method to the release its defer must call.
var unlockFor = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

type reporter func(pos token.Pos, format string, args ...any)

func runLockSafe(p *Pass) {
	for _, file := range p.Files {
		report := func(pos token.Pos, format string, args ...any) {
			if !p.Annotated(file, pos, lockSafeDirective) {
				p.Report(pos, format, args...)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkLockPairs(p.Info, n.List, report)
			case *ast.CaseClause:
				checkLockPairs(p.Info, n.Body, report)
			case *ast.CommClause:
				checkLockPairs(p.Info, n.Body, report)
			case *ast.StructType:
				checkEmbeddedLocks(p.Info, n, report)
			}
			return true
		})
	}
}

// checkLockPairs checks the lock statements of one statement list and scans
// the region each Lock/defer-Unlock pair holds.
func checkLockPairs(info *types.Info, list []ast.Stmt, report reporter) {
	for i, s := range list {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		obj, method, ok := lockMethod(info, call)
		if !ok {
			continue
		}
		unlock, acquires := unlockFor[method]
		switch {
		case method == "Unlock" || method == "RUnlock":
			report(call.Pos(), "%s.%s() is not deferred: defer it right after the Lock", obj.name(), method)
		case !acquires: // TryLock, TryRLock: not paired
		case i+1 < len(list) && defersRelease(info, list[i+1], obj, unlock):
			checkHeldRegion(info, list[i+2:], obj.name(), report)
		default:
			report(call.Pos(), "%s.%s() is not followed by defer %s.%s()", obj.name(), method, obj.name(), unlock)
		}
	}
}

// defersRelease reports whether s is `defer X.<unlock>()` on obj.
func defersRelease(info *types.Info, s ast.Stmt, obj syncObj, unlock string) bool {
	d, ok := s.(*ast.DeferStmt)
	if !ok {
		return false
	}
	o, method, ok := lockMethod(info, d.Call)
	return ok && o == obj && method == unlock
}

// checkHeldRegion reports every operation in stmts that can block while the
// named lock is held.
func checkHeldRegion(info *types.Info, stmts []ast.Stmt, held string, report reporter) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Arrow, "channel send while %s is held", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.OpPos, "channel receive while %s is held", held)
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					report(n.X.Pos(), "range over a channel while %s is held", held)
				}
			}
		case *ast.SelectStmt:
			// The comm clauses block only when there is no default; the
			// case bodies run under the lock like any other statement.
			blocking := true
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				blocking = blocking && cc.Comm != nil
				for _, s := range cc.Body {
					inspectShallow(s, visit)
				}
			}
			if blocking {
				report(n.Select, "select without default while %s is held", held)
			}
			return false
		case *ast.CallExpr:
			if obj, method, ok := lockMethod(info, n); ok && unlockFor[method] != "" {
				report(n.Pos(), "%s.%s() while %s is held: self- or lock-order deadlock", obj.name(), method, held)
			} else if name, _, _ := syncMethod(info, n); name == "(*sync.WaitGroup).Wait" {
				report(n.Pos(), "WaitGroup.Wait while %s is held", held)
			}
		}
		return true
	}
	for _, s := range stmts {
		inspectShallow(s, visit)
	}
}

// inspectShallow walks n like ast.Inspect but does not descend into function
// literals, whose bodies run elsewhere; the literal itself is still visited.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			f(m)
			return false
		}
		return f(m)
	})
}

// checkEmbeddedLocks flags anonymous sync primitive value fields.
func checkEmbeddedLocks(info *types.Info, st *ast.StructType, report reporter) {
	for _, fld := range st.Fields.List {
		if len(fld.Names) != 0 {
			continue // a named field carries the lock without promoting it
		}
		named, ok := info.TypeOf(fld.Type).(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue // pointer embeds reference rather than carry
		}
		pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
		if pkg == "sync/atomic" || pkg == "sync" && uncopyableSync[name] {
			report(fld.Pos(), "embedding %s.%s: every struct copy copies the lock and its methods are promoted into the API; use a named field instead",
				named.Obj().Pkg().Name(), name)
		}
	}
}

// uncopyableSync are the sync types whose values must never be copied.
var uncopyableSync = map[string]bool{"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true}

// syncObj names one sync primitive: the object the receiver expression's
// root identifier resolves to, plus the selector path from it.
type syncObj struct {
	root types.Object
	path string
}

func (o syncObj) name() string { return o.root.Name() + o.path }

// lockTypes are the receivers whose methods the rule pairs, spelled as in
// types.Func.FullName.
var lockTypes = map[string]bool{"(*sync.Mutex)": true, "(*sync.RWMutex)": true, "(sync.Locker)": true}

// lockMethod classifies call as a method call on a resolvable Mutex,
// RWMutex or Locker, returning the primitive and the method name.
func lockMethod(info *types.Info, call *ast.CallExpr) (syncObj, string, bool) {
	name, recv, ok := syncMethod(info, call)
	if !ok {
		return syncObj{}, "", false
	}
	dot := strings.LastIndexByte(name, '.')
	if !lockTypes[name[:dot]] {
		return syncObj{}, "", false
	}
	obj, ok := resolveSyncObj(info, recv)
	return obj, name[dot+1:], ok
}

// syncMethod returns the full name of the package sync method call invokes
// ("(*sync.Mutex).Lock", also when promoted from an embedded field) and its
// receiver expression.
func syncMethod(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "sync" {
		return "", nil, false
	}
	return s.Obj().(*types.Func).FullName(), sel.X, true
}

// resolveSyncObj resolves a receiver expression through selector, paren,
// star and address-of chains down to an identifier. It fails on anything
// dynamic (index expressions, call results), where two mentions cannot be
// proven to name the same primitive.
func resolveSyncObj(info *types.Info, e ast.Expr) (syncObj, bool) {
	path := ""
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return syncObj{}, false
			}
			e = x.X
		case *ast.SelectorExpr:
			path = "." + x.Sel.Name + path
			e = x.X
		case *ast.Ident:
			obj := info.ObjectOf(x)
			return syncObj{root: obj, path: path}, obj != nil
		default:
			return syncObj{}, false
		}
	}
}
