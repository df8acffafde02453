//go:build race

package vtime

// raceEnabled reports a -race build: the race runtime allocates on paths
// that allocate nothing without it, so allocation guards skip.
const raceEnabled = true
