//go:build !race

package coverage

const raceDetector = false
