package pipeline

import (
	"fmt"

	"fleaflicker/internal/arch"
	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/stats"
)

// Resume installs snap, a snapshot of the reference executor's run of the
// same program, as the starting state of a machine whose front end is fe,
// whose architectural state is st and whose counters col holds. It installs
// the registers and memory, primes the retired-instruction counter with the
// snapshot's count so the run's final count is prefix + delta, and points
// fetch at the snapshot PC for cycle 0. Timing structures (caches,
// predictor) stay cold. It refuses a snapshot of another program. Call
// before Run.
func Resume(snap *checkpoint.Snapshot, fe *FrontEnd, st *arch.State, col *stats.Collector) error {
	if snap.Program != "" && snap.Program != fe.prog.Name {
		return fmt.Errorf("snapshot is for program %q, machine runs %q", snap.Program, fe.prog.Name)
	}
	st.Regs = snap.Regs
	st.Mem = snap.Mem.Image()
	col.ResumeAt(snap.Retired)
	fe.Redirect(snap.PC, -1)
	return nil
}
