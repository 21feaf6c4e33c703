//go:build !race

package ch

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
