//go:build !race

package rrset

const raceDetector = false
