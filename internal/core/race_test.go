//go:build race

package core

// raceEnabled reports a race-detector build, under which sync.Pool
// drops items at random and allocation counts stop being repeatable.
const raceEnabled = true
