//go:build !race

package peertrack

const raceDetector = false
