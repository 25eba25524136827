//go:build race

package main

// raceDetector reports whether the tests were built with -race.
const raceDetector = true
