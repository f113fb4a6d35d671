package core

import (
	"sync"

	"fleaflicker/internal/program"
)

// References shares one functional reference per program name among the
// verified simulations of many goroutines, so a program is run on the
// reference executor once however many models and configurations verify
// against it. Callers must pass the same program for a name. The zero value
// is ready to use; a table holds at most one reference per name it is asked
// about, and keeps only its final state: a run verified against it is
// checked on registers, memory and retired count, as core.WithVerify checks
// a run without WithStoreLog, not on committed-store order.
type References struct {
	mu    sync.Mutex // guards cells; never held while a reference is computed
	cells map[string]*referenceCell
}

// referenceCell holds one name's stored reference. Its lock is held while
// the reference is computed, so concurrent first requests for one name run
// the executor once and requests for other names never wait on it.
type referenceCell struct {
	mu  sync.Mutex
	ref *Reference
}

// Get returns a reference for prog under a limit of maxSteps instructions.
// The stored reference is returned exactly when ComputeReference(prog,
// maxSteps) would return the same one: when it retired no more than
// maxSteps instructions (a halting program's reference does not depend on
// the limit). Otherwise Get computes one itself and, if none is stored and
// the computation succeeds, stores it; a failed computation is never stored,
// and its error is ComputeReference's. computed reports whether this call
// ran the executor.
func (t *References) Get(name string, prog *program.Program, maxSteps int64) (ref *Reference, computed bool, err error) {
	t.mu.Lock()
	c := t.cells[name]
	if c == nil {
		if t.cells == nil {
			t.cells = make(map[string]*referenceCell)
		}
		c = &referenceCell{}
		t.cells[name] = c
	}
	t.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ref != nil && c.ref.Result.Instructions <= maxSteps {
		return c.ref, false, nil
	}
	// With a reference stored, this limit is too small for the program to
	// halt under, so the computation fails and stores nothing.
	full, err := ComputeReference(prog, maxSteps)
	if err != nil {
		return nil, true, err
	}
	// The store log can hold thousands of commits per program; no run
	// verified against a shared reference records one to compare with.
	c.ref = &Reference{Result: full.Result}
	return c.ref, true, nil
}
