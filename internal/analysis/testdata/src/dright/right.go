// Package dright is the right arm of the diamond fixture.
package dright

import "dbase"

// Via forwards to the shared base allocator.
func Via() []int {
	return dbase.Fresh()
}

// Wait forwards to the shared base blocker.
func Wait() {
	dbase.Wait()
}
