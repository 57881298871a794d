package feature

import (
	"runtime"
	"sync"
)

// BuildGrain is the smallest input an epoch build splits across cores: the
// serving stacks' 1k catalogues stay on one goroutine, where a hand-over
// would cost more than the split saves, and a 5k catalogue already splits.
const BuildGrain = 4096

// Workers returns how many goroutines a build over n items runs on: one
// below BuildGrain, else one per started BuildGrain items, at most
// GOMAXPROCS.
func Workers(n int) int {
	if n < BuildGrain {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), (n+BuildGrain-1)/BuildGrain)
}

// Parallel calls f(w) for every w in [0, workers), each on its own
// goroutine but the last, which runs on the caller's, and returns once every
// call has. With one worker it is a plain call.
func Parallel(workers int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(workers - 1)
	wg.Wait()
}
