//go:build race

package runtime

// raceEnabled reports a -race build: its sync.Pool drops a quarter of Puts
// at random, so pooled buffers reallocate at that rate.
const raceEnabled = true
