// Package dbase is the shared base of the diamond call-graph fixture
// (dtop -> dleft, dright -> dbase).
package dbase

import "time"

// Fresh returns freshly allocated data.
func Fresh() []int {
	return make([]int, 4)
}

// Wait blocks.
func Wait() {
	time.Sleep(time.Millisecond)
}

// Ping and Pong form a clean cycle: the chain queries must terminate
// and report them block-free.
func Ping(n int) int {
	if n == 0 {
		return 0
	}
	return Pong(n - 1)
}

func Pong(n int) int {
	if n == 0 {
		return 1
	}
	return Ping(n - 1)
}
