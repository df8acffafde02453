//go:build !race

package store

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
