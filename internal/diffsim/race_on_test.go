//go:build race

package diffsim

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
