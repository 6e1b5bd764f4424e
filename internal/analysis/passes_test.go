package analysis_test

import (
	"testing"

	"peertrack/internal/analysis"
	"peertrack/internal/analysis/analysistest"
)

// Each corpus carries at least one true positive, several negatives
// (the false-positive traps: sorted-after-range, seeded rand.New,
// shadowed imports, unlock-before-call), and a //lint:allow escape-hatch
// case that must stay silent.

func TestDetWall(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.DetWall, "detwall")
}

func TestDetRand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.DetRand, "detrand")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.MapOrder, "maporder")
}

func TestLockHeld(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.LockHeld, "lockheld")
}
