//go:build race

package search

// Under the race detector sync.Pool drops recycled items at random, so the
// allocation guards, which count on the index's memory pool, do not hold.
func init() { raceEnabled = true }
