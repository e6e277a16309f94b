//go:build !race

package relation

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
