package core

import (
	"sync"
	"sync/atomic"
)

// Parallel evaluates fn(0) … fn(n−1) on up to workers goroutines (at
// least one) and returns the results in index order. A task that builds
// its own Network shares nothing with the others, so whatever a caller
// assembles from the results — a figure's rows, a chaos sweep's merged
// telemetry — is the same at any worker count.
func Parallel[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
