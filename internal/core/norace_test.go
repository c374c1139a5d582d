//go:build !race

package core

// raceEnabled reports a build with the race detector.
const raceEnabled = false
