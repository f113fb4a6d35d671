// Package snapshotalias defines the SSA-dataflow analyzer guarding the
// copy-on-write snapshot protocol of mem.Image (see internal/mem/imagesnap.go
// and PR 6's checkpoint subsystem). Two invariants, both invisible to the
// type system:
//
//  1. No page alias across a snapshot barrier. A page reference (*[N]byte
//     with N >= 512, or a []byte sliced from one) obtained from an image
//     before a barrier — (*mem.Image).Snapshot, (*mem.Image).CopyOnWrite,
//     (*mem.ImageSnapshot).Image, or any RestoreSnapshot — must not be used
//     after it: the barrier shares every live page with another image (or
//     swaps the backing image entirely), so a retained reference either
//     aliases storage another image reads or dangles into the pre-restore
//     image.
//
//  2. All page stores go through the copy-on-write fault path. Writing
//     through a page reference that may be snapshot-shared corrupts every
//     snapshot (and every image later materialized from one). Stores are
//     only permitted through provably private pages: the result of new, the
//     address of a local array, or a call to a function marked
//     //flea:cowfault (the fault path itself, which privatizes the page
//     before returning it).
//
// The analysis is a forward dataflow on the function's control-flow graph
// (internal/ssaflow over vendored go/cfg — the offline stand-in for a
// buildssa pass): each page-typed variable carries a taint
// {clean, fresh, shared, crossed}; barrier calls escalate fresh/shared to
// crossed on every path through them, and uses of crossed variables and
// stores through non-fresh ones are reported.
//
// Test files are exempt. The analysis is intraprocedural: a page reference
// stored into a struct field or returned is out of scope (the repository
// never does either outside mem's own page table).
package snapshotalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"fleaflicker/internal/analysis/annotation"
	"fleaflicker/internal/analysis/scope"
	"fleaflicker/internal/analysis/ssaflow"
)

// Analyzer is the snapshotalias analysis.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotalias",
	Doc:  "forbid page references held across copy-on-write snapshot barriers and page stores that bypass the fault path",
	Run:  run,
}

// pageArrayMin distinguishes page storage (*[4096]byte in mem) from small
// scratch arrays (*[8]byte encode buffers): anything 512 bytes or larger is
// treated as a page.
const pageArrayMin = 512

// Taint lattice per page-typed variable. Join is max.
const (
	tClean   uint8 = iota // not a page reference
	tFresh                // provably private page (new, &local, cowfault result)
	tShared               // may alias image/snapshot page storage
	tCrossed              // page reference that survived a snapshot barrier
)

func run(pass *analysis.Pass) (interface{}, error) {
	if !annotation.PkgIn(pass.Pkg, scope.Snapshotting...) {
		return nil, nil
	}
	marks := annotation.Gather(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if annotation.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &funcCheck{pass: pass, marks: marks}
			fn.check(fd.Type, fd.Body, marks.FuncMarked(fd, annotation.CowFault))
			// Function literals are separate functions with their own CFG
			// (their bodies do not execute where they appear).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					inner := &funcCheck{pass: pass, marks: marks}
					inner.check(lit.Type, lit.Body, false)
				}
				return true
			})
		}
	}
	return nil, nil
}

// taintState is the dataflow state: taint per variable. Implements
// ssaflow.State with pointwise-max join.
type taintState map[*types.Var]uint8

func (s taintState) Clone() ssaflow.State {
	c := make(taintState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s taintState) Join(other ssaflow.State) bool {
	o := other.(taintState)
	changed := false
	for k, v := range o {
		if v > s[k] {
			s[k] = v
			changed = true
		}
	}
	return changed
}

type funcCheck struct {
	pass  *analysis.Pass
	marks *annotation.Marks
	// reported dedupes diagnostics per (variable, position).
	reported map[token.Pos]bool
}

func (fc *funcCheck) check(ftype *ast.FuncType, body *ast.BlockStmt, isCowFault bool) {
	fc.reported = make(map[token.Pos]bool)
	g := ssaflow.New(body)

	// Entry state: page-typed parameters (EachPage callbacks) and
	// page-valued range variables are shared page references at their defs.
	// Range variables are seeded statically because go/cfg materializes a
	// range binding as a bare ident node, not an assignment.
	entry := make(taintState)
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if v, ok := fc.pass.TypesInfo.Defs[name].(*types.Var); ok && isPageType(v.Type()) {
					entry[v] = tShared
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && rs.Value != nil {
			if id, ok := rs.Value.(*ast.Ident); ok {
				if v, ok := fc.pass.TypesInfo.Defs[id].(*types.Var); ok && isPageType(v.Type()) {
					entry[v] = tShared
				}
			}
		}
		return true
	})

	in := g.Forward(entry, fc.transfer)
	g.Walk(in, fc.transfer, func(s ssaflow.State, n ast.Node) {
		fc.visit(s.(taintState), n, isCowFault)
	})
}

// transfer advances the taint state past one CFG node: assignments define
// taints, barrier calls escalate every live page reference to crossed.
func (fc *funcCheck) transfer(s ssaflow.State, n ast.Node) {
	st := s.(taintState)
	// Barriers anywhere in the node take effect for everything after it;
	// ordering within a single statement is coarser than SSA would give, but
	// a statement both holding a page reference and snapshotting is already
	// suspect.
	if fc.containsBarrier(n) {
		for v, t := range st {
			if t == tFresh || t == tShared {
				st[v] = tCrossed
			}
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		fc.assign(st, n.Lhs, n.Rhs)
	case *ast.ValueSpec:
		exprs := make([]ast.Expr, len(n.Names))
		for i, name := range n.Names {
			exprs[i] = name
		}
		fc.assign(st, exprs, n.Values)
	}
}

func (fc *funcCheck) assign(st taintState, lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		v := ssaflow.Var(fc.pass.TypesInfo, l)
		if v == nil {
			continue
		}
		if !isPageType(v.Type()) && !isByteSlice(v.Type()) {
			continue
		}
		var t uint8
		switch {
		case len(rhs) == len(lhs):
			t = fc.taintOf(st, rhs[i])
		case len(rhs) == 1 && i == 0:
			// v, ok := m.pages[k] — the value is the first variable.
			t = fc.taintOf(st, rhs[0])
		}
		st[v] = t
	}
}

// taintOf computes the taint of an expression's value under state st.
func (fc *funcCheck) taintOf(st taintState, e ast.Expr) uint8 {
	e = ast.Unparen(e)
	info := fc.pass.TypesInfo

	// []byte views of a page carry the page's taint.
	if sl, ok := e.(*ast.SliceExpr); ok {
		if isPageType(info.TypeOf(sl.X)) {
			return fc.taintOf(st, sl.X)
		}
		if v := ssaflow.Var(info, sl.X); v != nil {
			return st[v]
		}
		return tClean
	}
	if !isPageType(info.TypeOf(e)) {
		return tClean
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v := ssaflow.Var(info, e); v != nil {
			return st[v]
		}
		return tShared
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("new") {
			return tFresh
		}
		if fn := annotation.CalleeFunc(info, e); fn != nil && fc.calleeCowFault(fn) {
			return tFresh
		}
		return tShared
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return tFresh
		}
		return tShared
	default:
		// Map index, field select, type assertion: image page storage.
		return tShared
	}
}

// calleeCowFault reports whether fn is declared in this package with a
// //flea:cowfault mark. (Cross-package cowfault helpers would need facts;
// the fault path lives where the page table lives.)
func (fc *funcCheck) calleeCowFault(fn *types.Func) bool {
	if fn.Pkg() != fc.pass.Pkg {
		return false
	}
	for _, f := range fc.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn.Name() {
				continue
			}
			if fc.pass.TypesInfo.Defs[fd.Name] == fn {
				return fc.marks.FuncMarked(fd, annotation.CowFault)
			}
		}
	}
	return false
}

// containsBarrier reports whether node n performs a snapshot barrier:
// (*mem.Image).Snapshot, (*mem.Image).CopyOnWrite, (*mem.ImageSnapshot).Image,
// or any RestoreSnapshot method (a machine resuming from a checkpoint).
// Function literals inside n are skipped — they run elsewhere.
func (fc *funcCheck) containsBarrier(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := annotation.CalleeFunc(fc.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if annotation.IsMethod(fn, "mem", "Image", "Snapshot") ||
			annotation.IsMethod(fn, "mem", "Image", "CopyOnWrite") ||
			annotation.IsMethod(fn, "mem", "ImageSnapshot", "Image") ||
			(fn.Name() == "RestoreSnapshot" && fn.Type().(*types.Signature).Recv() != nil) {
			found = true
			return false
		}
		return true
	})
	return found
}

// visit checks one CFG node against the state holding immediately before it:
// uses of crossed references, and stores through non-private pages.
func (fc *funcCheck) visit(st taintState, n ast.Node, isCowFault bool) {
	info := fc.pass.TypesInfo

	// Defining occurrences are not uses; collect them to skip.
	defs := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				defs[id] = true
			}
		}
	}

	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if defs[m] {
				return true
			}
			v, ok := info.Uses[m].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			if st[v] == tCrossed && !fc.reported[m.Pos()] {
				fc.reported[m.Pos()] = true
				fc.pass.Reportf(m.Pos(),
					"page reference %s was obtained before a snapshot barrier and used after it; re-derive it from the image", m.Name)
			}
		case *ast.AssignStmt:
			for _, l := range m.Lhs {
				fc.checkStore(st, l, isCowFault)
			}
		case *ast.CallExpr:
			// copy(dst, ...) writes through dst.
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok &&
				info.Uses[id] == types.Universe.Lookup("copy") && len(m.Args) == 2 {
				fc.checkStore(st, m.Args[0], isCowFault)
			}
		}
		return true
	})
}

// checkStore reports a store through dst when dst dereferences a page that
// is not provably private.
func (fc *funcCheck) checkStore(st taintState, dst ast.Expr, isCowFault bool) {
	if isCowFault {
		return // the fault path owns the page table
	}
	info := fc.pass.TypesInfo
	var base ast.Expr
	switch d := ast.Unparen(dst).(type) {
	case *ast.IndexExpr:
		base = d.X
	case *ast.StarExpr:
		base = d.X
	case *ast.SliceExpr:
		base = d.X
	default:
		return
	}
	if !isPageType(info.TypeOf(base)) {
		// Stores into local array values ([N]byte variables) are value
		// semantics; only pointer dereferences can reach shared storage.
		return
	}
	if t := fc.taintOf(st, base); t >= tShared {
		if !fc.reported[dst.Pos()] {
			fc.reported[dst.Pos()] = true
			fc.pass.Reportf(dst.Pos(),
				"store through page reference bypasses the copy-on-write fault path; write via the image (or a //flea:cowfault helper) so shared pages fault private first")
		}
	}
}

// isPageType reports whether t is a page reference: *[N]byte with
// N >= pageArrayMin.
func isPageType(t types.Type) bool {
	if t == nil {
		return false
	}
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	a, ok := p.Elem().Underlying().(*types.Array)
	if !ok || a.Len() < pageArrayMin {
		return false
	}
	b, ok := a.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
