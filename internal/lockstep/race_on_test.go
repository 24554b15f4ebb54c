//go:build race

package lockstep

// raceEnabled reports whether the race detector is on; the long
// exhaustive cases repeat code paths the short ones already run, at ten
// times the cost under -race.
const raceEnabled = true
