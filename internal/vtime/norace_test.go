//go:build !race

package vtime

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
