// Package ssaflow is the intraprocedural dataflow engine behind the
// flealint v2 analyzer guardedby.
//
// The toolchain's cmd/vendor tree — the only offline source for
// golang.org/x/tools — ships go/cfg but not go/ssa, so the v2 analyzer
// cannot be a literal buildssa pass. This package recovers the part of SSA
// it needs: a control-flow graph per function (vendored go/cfg) plus a
// monotone forward dataflow solver at node granularity, through which a
// client expresses SSA-style facts — "which definition of v reaches this
// use", "is lock mu held on every path to this access" — as an abstract
// state with client-defined transfer and join.
//
// The solver is standard worklist iteration to fixpoint. Clients implement
// State (Clone + Join on a finite-height lattice) and a transfer function
// applied to each CFG node in block order; Forward computes the state
// holding at entry to every reachable block, and Walk replays the transfer
// within blocks so a client can inspect the state holding immediately
// before every node.
package ssaflow

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/cfg"
)

// State is a client-defined abstract dataflow state. Implementations are
// mutable (transfer functions update them in place); Clone must produce an
// independent copy, and Join must merge other into the receiver, reporting
// whether the receiver changed. Join is only called with states of the
// client's own concrete type.
type State interface {
	Clone() State
	Join(other State) (changed bool)
}

// Graph is the control-flow graph of one function, ready for dataflow.
type Graph struct {
	Body *ast.BlockStmt
	CFG  *cfg.CFG
}

// New builds the CFG for a function declaration or literal body. Calls to
// panic-like functions (panic, os.Exit, runtime.Goexit, log.Fatal*) are
// treated as not returning, which prunes infeasible fallthrough paths the
// same way buildssa's dominator pruning would.
func New(body *ast.BlockStmt) *Graph {
	return &Graph{Body: body, CFG: cfg.New(body, mayReturn)}
}

// mayReturn reports whether a call can return to its caller.
func mayReturn(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name != "panic" && fun.Name != "Goexit"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "Exit" || name == "Goexit" || name == "Fatal" ||
			name == "Fatalf" || name == "Fatalln" {
			return false
		}
	}
	return true
}

// Forward runs transfer over the CFG to fixpoint and returns the abstract
// state holding at entry to each reachable block. entry is the state at
// function entry; it is not mutated.
func (g *Graph) Forward(entry State, transfer func(State, ast.Node)) map[*cfg.Block]State {
	in := make(map[*cfg.Block]State, len(g.CFG.Blocks))
	if len(g.CFG.Blocks) == 0 {
		return in
	}
	entryBlock := g.CFG.Blocks[0]
	in[entryBlock] = entry.Clone()
	worklist := []*cfg.Block{entryBlock}
	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		s := in[b].Clone()
		for _, n := range b.Nodes {
			transfer(s, n)
		}
		for _, succ := range b.Succs {
			if cur, ok := in[succ]; !ok {
				in[succ] = s.Clone()
				worklist = append(worklist, succ)
			} else if cur.Join(s) {
				worklist = append(worklist, succ)
			}
		}
	}
	return in
}

// Walk replays the fixpoint solution: for every reachable block, visit is
// called with the state holding immediately before each node, in block
// order, after which transfer advances the state past the node. The state
// passed to visit is working storage — clients must not retain it.
func (g *Graph) Walk(in map[*cfg.Block]State, transfer func(State, ast.Node), visit func(State, ast.Node)) {
	for _, b := range g.CFG.Blocks {
		s, ok := in[b]
		if !ok {
			continue // unreachable
		}
		work := s.Clone()
		for _, n := range b.Nodes {
			visit(work, n)
			transfer(work, n)
		}
	}
}

// Var resolves an expression to the *types.Var it denotes, unwrapping
// parentheses: an identifier naming a local, parameter, or named result.
// It returns nil for anything else (fields, globals, complex expressions).
func Var(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// LockID names one mutex reachable from a root variable: the root's object
// identity plus the selected field path, so `m.mu` and `q.mu` (and two
// different `m`s across functions) never collide. The zero LockID is
// invalid.
type LockID struct {
	Root types.Object
	Path string
}

// LockKey resolves a lock expression — an identifier or a selector chain
// rooted at one (mu, m.mu, s.queue.mu) — to its LockID. ok is false for
// expressions rooted elsewhere (map index, call result), which the must-hold
// analysis conservatively refuses to track.
func LockKey(info *types.Info, e ast.Expr) (LockID, bool) {
	path := ""
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil {
				return LockID{}, false
			}
			return LockID{Root: obj, Path: path}, true
		case *ast.SelectorExpr:
			path = "." + x.Sel.Name + path
			e = x.X
		default:
			return LockID{}, false
		}
	}
}
