//go:build !race

package diffsim

// raceEnabled reports whether the race detector instruments this build.
// Allocation accounting differs under -race, so the set-up bytes gate skips
// itself there.
const raceEnabled = false
