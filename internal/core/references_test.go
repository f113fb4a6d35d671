package core

import (
	"runtime"
	"testing"

	"fleaflicker/internal/workload"
)

// TestReferencesSkipStoreLog bounds the heap bytes References allocates for
// one reference of 175.vpr, a store-heavy kernel. A shared reference is
// never checked on store order, so computing it must not record the
// committed-store log, whose prefix alone holds up to 65,536 commits of 24
// bytes each.
func TestReferencesSkipStoreLog(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	bench, err := workload.ByName("175.vpr")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Program()
	full, err := ComputeReference(prog, DefaultConfig().MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	var refs References
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, computed, err := refs.Get(bench.Name, prog, DefaultConfig().MaxCycles)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !computed || ref.Stores != nil {
		t.Fatalf("Get computed %v, kept a store log %v", computed, ref.Stores != nil)
	}
	logBytes := uint64(min(full.Stores.Len(), 65536)) * 24
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("References.Get allocated %d bytes; the store log prefix of %d commits is %d bytes", got, full.Stores.Len(), logBytes)
	if got >= logBytes {
		t.Errorf("References.Get allocated %d bytes, at least the %d of a store log", got, logBytes)
	}
}
