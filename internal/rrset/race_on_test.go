//go:build race

package rrset

// raceDetector reports whether the tests were built with -race, under
// which slices.Grow allocates its growth twice.
const raceDetector = true
