//go:build race

package seminaive

// raceEnabled reports a race-detector build, under which allocation
// counts stop being repeatable.
const raceEnabled = true
