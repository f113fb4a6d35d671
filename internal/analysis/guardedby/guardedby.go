// Package guardedby defines the lockset analyzer behind the
// //flea:guardedby and //flea:atomic field annotations (see
// internal/analysis/annotation). In the concurrent packages — the serving
// layer and the shared metrics family — struct fields document their
// synchronization discipline and this analyzer checks every access against
// it:
//
//   - A field marked //flea:guardedby(mu) may only be read or written while
//     the sibling mutex field mu of the same struct value is held. Held-ness
//     is a must-hold forward dataflow over the function's CFG
//     (internal/ssaflow): mu.Lock()/RLock() adds the lock to the set on the
//     path, mu.Unlock()/RUnlock() removes it, and a branch join keeps only
//     locks held on every incoming path. A deferred Unlock runs at return
//     and so does not release the lock mid-body. Functions whose callers
//     hold the lock are marked //flea:locked(mu), which seeds the entry
//     lockset with the receiver's mutex.
//
//   - A field marked //flea:atomic may only be touched through sync/atomic:
//     either the field is one of the atomic.* value types and every access
//     is a method call on it, or the access is &f passed directly to a
//     sync/atomic function. Copying an atomic value or mixing plain loads
//     with atomic stores tears.
//
// Limits, chosen to match how the repository writes concurrent code: locks
// are named by selector chains rooted in a variable (m.mu, q.queue.mu) — a
// lock reached through a map or call result is not tracked; accesses inside
// function literals are not checked (a closure runs on another goroutine's
// schedule, where this function's lockset proves nothing); and a value
// freshly constructed in the function (composite literal or new) is still
// private, so its fields may be initialized without the lock. Test files
// are exempt.
//
// What only this analyzer catches: resultCache.complete releasing mu
// around its LRU eviction loop, a path reached only once more results
// complete than Config.CacheEntries allows. Planted on purpose, it failed no
// test, not under the race detector either (race, race-service,
// cluster-smoke): no test evicts while another goroutine reads the cache.
// Deleting the Lock/Unlock pair of acquire or abandon, by contrast, shows
// up as DATA RACE reports in the race-run gates.
package guardedby

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"fleaflicker/internal/analysis/annotation"
	"fleaflicker/internal/analysis/scope"
	"fleaflicker/internal/analysis/ssaflow"
)

// Analyzer is the guardedby analysis.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc:  "check //flea:guardedby(mu) lock discipline and //flea:atomic access discipline on annotated struct fields",
	Run:  run,
}

// guardInfo is the declared discipline of one annotated field.
type guardInfo struct {
	mu     string // sibling mutex field name (guardedby)
	atomic bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !annotation.PkgIn(pass.Pkg, scope.Guarded...) {
		return nil, nil
	}
	marks := annotation.Gather(pass.Fset, pass.Files)
	guarded := collectFields(pass, marks)
	if len(guarded) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, marks, guarded, fd)
		}
	}
	return nil, nil
}

// collectFields indexes every annotated struct field in the package and
// validates guardedby arguments against the struct's own fields.
func collectFields(pass *analysis.Pass, marks *annotation.Marks) map[*types.Var]guardInfo {
	guarded := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]*ast.Field)
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					fieldNames[name.Name] = field
				}
			}
			for _, field := range st.Fields.List {
				mu, hasMu := marks.FieldMarkedArg(field, annotation.GuardedBy)
				_, isAtomic := marks.FieldMarkedArg(field, annotation.Atomic)
				if !hasMu && !isAtomic {
					continue
				}
				if hasMu {
					sib, ok := fieldNames[mu]
					if !ok {
						pass.Reportf(field.Pos(),
							"//flea:guardedby(%s) names no field of this struct", mu)
						continue
					}
					if !annotation.IsMutex(pass.TypesInfo.TypeOf(sib.Type)) {
						pass.Reportf(field.Pos(),
							"//flea:guardedby(%s): %s is not a sync.Mutex or sync.RWMutex", mu, mu)
						continue
					}
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[v] = guardInfo{mu: mu, atomic: isAtomic}
					}
				}
			}
			return true
		})
	}
	return guarded
}

// lockState is the must-hold lockset. Join is set intersection: a lock is
// held at a join only if held on every incoming path.
type lockState map[ssaflow.LockID]bool

func (s lockState) Clone() ssaflow.State {
	c := make(lockState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s lockState) Join(other ssaflow.State) bool {
	o := other.(lockState)
	changed := false
	for k := range s {
		if !o[k] {
			delete(s, k)
			changed = true
		}
	}
	return changed
}

func checkFunc(pass *analysis.Pass, marks *annotation.Marks, guarded map[*types.Var]guardInfo, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	g := ssaflow.New(fd.Body)

	entry := make(lockState)
	if mu, ok := marks.FuncMarkedArg(fd, annotation.Locked); ok {
		if recv := receiverVar(info, fd); recv != nil && mu != "" {
			entry[ssaflow.LockID{Root: recv, Path: "." + mu}] = true
		} else {
			pass.Reportf(fd.Pos(), "//flea:locked(%s) requires a named receiver and a mutex field name", mu)
		}
	}

	fresh := freshLocals(info, fd.Body)
	atomicOK := validAtomicUses(info, fd.Body)

	transfer := func(s ssaflow.State, n ast.Node) {
		applyLockOps(info, s.(lockState), n)
	}
	in := g.Forward(entry, transfer)
	g.Walk(in, transfer, func(s ssaflow.State, n ast.Node) {
		checkAccesses(pass, guarded, fresh, atomicOK, s.(lockState), n)
	})
}

// receiverVar returns the declared receiver variable of a method, if named.
func receiverVar(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// applyLockOps advances the lockset past one CFG node: Lock/RLock on a
// trackable mutex expression adds it, Unlock/RUnlock removes it. Deferred
// calls run at return, not here; function literals run elsewhere.
func applyLockOps(info *types.Info, s lockState, n ast.Node) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
			if !ok || !annotation.IsMutex(info.TypeOf(sel.X)) {
				return true
			}
			id, ok := ssaflow.LockKey(info, sel.X)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				s[id] = true
			case "Unlock", "RUnlock":
				delete(s, id)
			}
		}
		return true
	})
}

// freshLocals returns the variables assigned a composite literal or new(...)
// anywhere in the body: values still private to this function, whose fields
// may be initialized lock-free.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			v := ssaflow.Var(info, l)
			if v == nil {
				continue
			}
			r := ast.Unparen(as.Rhs[i])
			if u, ok := r.(*ast.UnaryExpr); ok {
				r = ast.Unparen(u.X)
			}
			switch r := r.(type) {
			case *ast.CompositeLit:
				fresh[v] = true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok &&
					info.Uses[id] == types.Universe.Lookup("new") {
					fresh[v] = true
				}
			}
		}
		return true
	})
	return fresh
}

// validAtomicUses collects the selector expressions of atomic-marked fields
// that appear in a sanctioned position: the receiver of a method call on an
// atomic.* value, or under & as a direct argument to a sync/atomic function.
func validAtomicUses(info *types.Info, body *ast.BlockStmt) map[ast.Expr]bool {
	ok := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		fn := annotation.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			// c.v.Add(1): the receiver expression is the sanctioned use.
			if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
				ok[ast.Unparen(sel.X)] = true
			}
		} else {
			// atomic.AddInt64(&c.v, 1): address-of arguments are sanctioned.
			for _, arg := range call.Args {
				if u, isAddr := ast.Unparen(arg).(*ast.UnaryExpr); isAddr {
					ok[ast.Unparen(u.X)] = true
				}
			}
		}
		return true
	})
	return ok
}

// checkAccesses reports guarded-field accesses in node n against the
// lockset holding immediately before it.
func checkAccesses(pass *analysis.Pass, guarded map[*types.Var]guardInfo, fresh map[*types.Var]bool,
	atomicOK map[ast.Expr]bool, locks lockState, n ast.Node) {
	info := pass.TypesInfo
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		se, ok := m.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[se]
		if !ok {
			return true
		}
		fv, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		gi, ok := guarded[fv]
		if !ok {
			return true
		}
		if gi.atomic {
			if !atomicOK[se] {
				pass.Reportf(se.Pos(),
					"field %s is //flea:atomic and may only be accessed through sync/atomic operations", fv.Name())
			}
			return true
		}
		base, trackable := ssaflow.LockKey(info, se.X)
		if trackable {
			if rv, isVar := base.Root.(*types.Var); isVar && fresh[rv] {
				return true // value constructed in this function, still private
			}
		}
		need := ssaflow.LockID{Root: base.Root, Path: base.Path + "." + gi.mu}
		if !trackable || !locks[need] {
			pass.Reportf(se.Pos(),
				"field %s is //flea:guardedby(%s) but %s is not provably held here; lock it (or mark the function //flea:locked(%s) if every caller holds it)",
				fv.Name(), gi.mu, gi.mu, gi.mu)
		}
		return true
	})
}
