//go:build race

package coverage

// raceDetector reports whether the tests were built with -race, under
// which slices.Grow allocates its growth twice.
const raceDetector = true
