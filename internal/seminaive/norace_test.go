//go:build !race

package seminaive

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
