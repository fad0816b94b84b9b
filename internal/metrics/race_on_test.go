//go:build race

package metrics

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
