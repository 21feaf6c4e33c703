//go:build !race

package tnr

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
