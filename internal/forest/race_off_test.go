//go:build !race

package forest

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
