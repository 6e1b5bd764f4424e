// Package dtop is the apex of the diamond fixture: both arms reach
// dbase, and the facts must merge the shared base once.
package dtop

import (
	"dleft"
	"dright"
)

// Entry reaches dbase.Fresh through both arms.
func Entry() []int {
	xs := dleft.Via()
	ys := dright.Via()
	return append(xs, ys...)
}

// Waits reaches the blocker two packages down.
func Waits() {
	dright.Wait()
}
