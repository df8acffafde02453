//go:build !race

package livenet

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
