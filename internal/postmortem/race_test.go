//go:build race

package postmortem_test

// raceEnabled: the race runtime allocates on its own, so exact
// allocation counts are checked only without -race.
const raceEnabled = true
