//go:build race

package relation

// raceEnabled reports a race-detector build, under which allocation
// counts stop being repeatable.
const raceEnabled = true
