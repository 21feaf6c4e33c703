//go:build race

package server_test

// raceEnabled reports whether the race detector instruments this build.
// It changes allocation counts and makes sync.Pool drop items at random,
// so tests pinning allocations must skip themselves.
const raceEnabled = true
