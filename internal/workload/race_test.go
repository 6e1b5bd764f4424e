//go:build race

package workload

func init() { raceDetector = true }
