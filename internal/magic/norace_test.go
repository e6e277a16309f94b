//go:build !race

package magic

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
