//go:build race

package peertrack

// raceDetector reports that the tests were built with -race.
const raceDetector = true
