//go:build race

package core

// raceDetector reports whether the tests were built with -race, under
// which sync.Pool drops entries at random.
const raceDetector = true
