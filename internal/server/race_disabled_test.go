//go:build !race

package server_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
